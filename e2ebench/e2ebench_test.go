package main

import (
	"testing"
)

// countMetrics are the traced run's per-operation counts: they depend only
// on the seeded dataset and queries, never on timing, so they must repeat
// exactly between two runs with one seed.
var countMetrics = []string{
	"cluster.sim_index_s", "cluster.sim_data_s", "mapreduce.records_read", "mapreduce.splits",
	"storage.bytes_read", "dgf.slices_per_query", "shard.targets_per_query", "hive.precompute_ratio",
	"hive.records_per_row_out", "dgf.index_bytes",
}

func TestTracedCountsRepeatPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four small fleets")
	}
	for _, wl := range []string{"analyst_mdrq", "batch_scan"} {
		t.Run(wl, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				res, err := run(options{
					workload: wl, seed: 7, seconds: 0.2, traced: true,
					users: 1000, workDir: t.TempDir(), setups: 1,
					log: func(string, ...any) {},
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct {
					t.Fatalf("wrong answers: %v", res.wrong)
				}
				runs[i] = map[string]float64{}
				for _, m := range res.metrics {
					runs[i][m.name] = m.value
				}
			}
			for _, name := range countMetrics {
				a, ok := runs[0][name]
				if !ok {
					t.Fatalf("metric %s missing", name)
				}
				if b := runs[1][name]; a != b {
					t.Errorf("%s: %v then %v with the same seed", name, a, b)
				}
			}
			if runs[0]["mapreduce.records_read"] == 0 || runs[0]["cluster.sim_data_s"] == 0 {
				t.Errorf("count metrics are zero: %v", runs[0])
			}
		})
	}
}

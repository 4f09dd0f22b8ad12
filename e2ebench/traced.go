package main

import (
	"errors"
	"sort"
	"strings"

	"github.com/smartgrid-oss/dgfindex/internal/server"
)

// applyProbeLoads is how many replica-sized slices the apply probe times.
const applyProbeLoads = 8

// tracedMetrics derives the per-layer metrics of a traced run: span-tree
// timings over every traced query, count metrics averaged over the fixed
// leading query set (so they repeat exactly per seed), /stats deltas over
// the window, the loader's decorator timings, and in-process probes of
// single modules on one replica.
func tracedMetrics(o options, res *result, gen *generator, tk ticks, samples []*querySample, mp *moduleProbes,
	ing *ingestRun, s0, s1 *server.Snapshot, indexBytes int64) error {
	countN := 2 * countSet[o.workload]
	var httpMs, selfMs, routerMs, scatterSelf, straggler, whSelf, mrMs, nsPerRec []float64
	var tracedLat, untracedLat []float64
	var targets, slices, perRowOut, records, splits, bytesRead, simIndex, simData []float64
	var skipped, recordsSum float64
	var aggs, precomputed int
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		if !gen.traced(s.i) {
			untracedLat = append(untracedLat, ms(s.rtt))
			continue
		}
		tracedLat = append(tracedLat, ms(s.rtt))
		l, err := parseSpans(s.resp)
		if err != nil {
			return err
		}
		httpMs = append(httpMs, ms(s.rtt)-s.resp.WallMs)
		selfMs = append(selfMs, l.selfMs)
		routerMs = append(routerMs, l.backendMs)
		scatterSelf = append(scatterSelf, l.scatterSelfMs)
		straggler = append(straggler, l.stragglerMs)
		whSelf = append(whSelf, l.warehouseSelfMs)
		mrMs = append(mrMs, l.mapreduceMs)
		if l.nsPerRecord > 0 {
			nsPerRec = append(nsPerRec, l.nsPerRecord)
		}
		if countN > 0 && s.i >= countN {
			continue
		}
		st := s.resp.Stats
		targets = append(targets, float64(l.targets))
		slices = append(slices, float64(l.slices))
		records = append(records, float64(st.RecordsRead))
		perRowOut = append(perRowOut, float64(st.RecordsRead)/float64(max(s.resp.RowCount, 1)))
		splits = append(splits, float64(st.Splits))
		bytesRead = append(bytesRead, float64(st.BytesRead))
		simIndex = append(simIndex, st.IndexSimSec)
		simData = append(simData, st.DataSimSec)
		skipped += float64(st.GroupsSkipped)
		recordsSum += float64(st.RecordsRead)
		if s.q.isAgg() {
			aggs++
			if strings.Contains(st.AccessPath, "dgfindex(precompute)") {
				precomputed++
			}
		}
	}
	if len(tracedLat) == 0 || len(untracedLat) == 0 {
		return errors.New("traced run needs both traced and untraced queries")
	}

	applyMs, err := applyProbe(o.users, o.seed, tk, applyProbeLoads)
	if err != nil {
		return err
	}

	var httpLoad, route, appendMs, late []float64
	for _, s := range ing.samples {
		rtt := ms(s.acked.Sub(s.sent))
		httpLoad = append(httpLoad, rtt-s.routeMs)
		route = append(route, s.routeMs)
		appendMs = append(appendMs, s.appendMs)
		late = append(late, ms(s.sent.Sub(s.due)))
	}
	dq := float64(s1.Server.Queries - s0.Server.Queries)
	queueWaitMs := 0.0
	if dq > 0 {
		queueWaitMs = (s1.Server.QueueWaitSeconds - s0.Server.QueueWaitSeconds) * 1e3 / dq
	}
	precomputeRatio := 0.0
	if aggs > 0 {
		precomputeRatio = float64(precomputed) / float64(aggs)
	}
	groupsRead := recordsSum / mp.rowsPerGroup
	rowsPerApply := 0.0
	if ing.applyBatches > 0 {
		rowsPerApply = float64(ing.rowsApply) / float64(ing.applyBatches)
	}

	res.add("server.http_query_ms", median(httpMs), "ms")
	res.add("server.self_ms", median(selfMs), "ms")
	res.add("server.http_load_ms", median(httpLoad), "ms")
	res.add("server.queue_wait_ms", queueWaitMs, "ms")
	res.add("server.result_cache_hit_ratio", hitRatio(s0.ResultCache, s1.ResultCache), "ratio")
	res.add("server.plan_cache_hit_ratio", hitRatio(s0.PlanCache, s1.PlanCache), "ratio")
	res.add("shard.router_ms", median(routerMs), "ms")
	res.add("shard.scatter_self_ms", median(scatterSelf), "ms")
	res.add("shard.straggler_ms", median(straggler), "ms")
	res.add("shard.targets_per_query", mean(targets), "count")
	res.add("shard.load_route_ms", median(route), "ms")
	res.add("wal.append_ms", median(appendMs), "ms")
	res.add("wal.apply_ms", median(applyMs), "ms")
	res.add("wal.rows_per_apply", rowsPerApply, "count")
	res.add("wal.pending_rows_max", float64(ing.pendingRowsMax), "count")
	res.add("hive.parse_us", median(mp.layers.parseUs), "us")
	res.add("hive.plan_ms", median(mp.layers.hivePlanMs), "ms")
	res.add("hive.warehouse_self_ms", median(whSelf), "ms")
	res.add("hive.precompute_ratio", precomputeRatio, "ratio")
	res.add("hive.records_per_row_out", mean(perRowOut), "count")
	res.add("dgf.plan_ms", median(mp.layers.dgfPlanMs), "ms")
	res.add("dgf.slices_per_query", mean(slices), "count")
	res.add("dgf.index_bytes", float64(indexBytes), "B")
	res.add("mapreduce.ms", median(mrMs), "ms")
	res.add("mapreduce.ns_per_record", median(nsPerRec), "ns")
	res.add("mapreduce.records_read", mean(records), "count")
	res.add("mapreduce.splits", mean(splits), "count")
	res.add("storage.decode_ns_per_row", mp.decodeNs, "ns")
	res.add("storage.bytes_read", mean(bytesRead), "B")
	res.add("storage.groups_skipped_ratio", skipped/max(skipped+groupsRead, 1), "ratio")
	res.add("storage.files_per_replica", float64(mp.files), "count")
	res.add("cluster.sim_index_s", mean(simIndex), "sim_s")
	res.add("cluster.sim_data_s", mean(simData), "sim_s")
	res.add("trace.overhead_pct", (median(tracedLat)/median(untracedLat)-1)*100, "%")
	res.add("bench.gen_late_ms", maxOf(late), "ms")
	return nil
}

// moduleProbes are the traced run's in-process timings of single modules on
// replica 0 of shard 0, taken while the replica holds the data the window's
// queries read (before the read-only workloads' load probe adds files).
type moduleProbes struct {
	layers       layerProbe
	decodeNs     float64
	rowsPerGroup float64
	files        int
}

// probeModules parses, explains and DGF-plans up to 64 of the traced
// queries among the first countN, decodes the replica's row groups and
// counts its data files.
func probeModules(f *fleet, gen *generator, countN int, samples []*querySample) (*moduleProbes, error) {
	sort.Slice(samples, func(a, b int) bool { return samples[a].i < samples[b].i })
	w := f.router.Replica(0, 0)
	mp := &moduleProbes{}
	probed := 0
	for _, s := range samples {
		if probed == 64 || (countN > 0 && s.i >= countN) {
			break
		}
		if s.err != nil || !gen.traced(s.i) {
			continue
		}
		if err := mp.layers.query(w, s.q); err != nil {
			return nil, err
		}
		probed++
	}
	var err error
	mp.decodeNs, mp.rowsPerGroup, mp.files, err = decodeProbe(w)
	return mp, err
}

func hitRatio(a, b server.CacheStats) float64 {
	hits, misses := b.Hits-a.Hits, b.Misses-a.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

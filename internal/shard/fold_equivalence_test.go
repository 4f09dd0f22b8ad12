package shard

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// foldMeterRows is the batch-scan dataset: the meter rows with one extra
// metric (pate1) and a feeder name per reading — few distinct long strings
// that change from row to row, so row groups store the column
// dictionary-encoded. The DGFIndex reorganises the table by GFU, which
// leaves regionId in long runs: it is stored run-length encoded.
func foldMeterRows(cfg workload.MeterConfig) []storage.Row {
	rows := cfg.AllRows()
	for i, r := range rows {
		rows[i] = append(r, storage.Str(fmt.Sprintf("feeder-substation-%02d", i%6)))
	}
	return rows
}

func setupFoldFleet(t *testing.T, l loader, warehouses []*hive.Warehouse, rows, users []storage.Row) {
	t.Helper()
	mustExec(t, l, `CREATE TABLE meterdata (userId bigint, regionId bigint, ts timestamp,
		powerConsumed double, pate1 double, feeder string) STORED AS RCFILE`)
	for _, w := range warehouses {
		tbl, err := w.Table("meterdata")
		if err != nil {
			t.Fatal(err)
		}
		tbl.RowGroupRows = 16
	}
	if err := l.LoadRowsByName("meterdata", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, l, `CREATE TABLE userInfo (userId bigint, userName string, regionId bigint, address string)`)
	if err := l.LoadRowsByName("userInfo", users); err != nil {
		t.Fatal(err)
	}
	mustExec(t, l, `CREATE INDEX idx ON TABLE meterdata(regionId, userId, ts)
		AS 'dgf' IDXPROPERTIES ('regionId'='1_1', 'userId'='1_8',
		'ts'='2012-12-01_1d', 'precompute'='sum(powerConsumed);count(*)')`)
}

// foldMatch compares two aggregate results the way their accumulators
// promise: group keys, COUNT, MIN and MAX exactly; SUM and AVG, whose
// summation order follows the read order of each access path and shard
// layout, within 1e-9 relative.
func foldMatch(cols []string, want, got []storage.Row) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d rows vs %d", len(want), len(got))
	}
	for i := range want {
		for j, name := range cols {
			wv, gv := want[i][j], got[i][j]
			if strings.HasPrefix(name, "sum(") || strings.HasPrefix(name, "avg(") {
				if math.Abs(wv.F-gv.F) > 1e-9*math.Abs(wv.F) {
					return fmt.Errorf("row %d %s: %v vs %v", i, name, wv.F, gv.F)
				}
				continue
			}
			if wv.Kind != gv.Kind || storage.Compare(wv, gv) != 0 {
				return fmt.Errorf("row %d %s: %v vs %v", i, name, wv, gv)
			}
		}
	}
	return nil
}

// TestFoldEquivalenceBatchScanShapes: the batch-scan query shapes — the
// wide multi-aggregate GROUP BY, aggregates behind a non-indexed predicate,
// the userInfo join grouped by a right-side column — plus GROUP BY over a
// dictionary column, a run-length column, a plain column and two columns,
// and an aggregate over an expression, answer the same on every path:
// vectorised and row, DGFIndex and full scan, one warehouse and 1- and
// 4-shard fleets.
func TestFoldEquivalenceBatchScanShapes(t *testing.T) {
	cfg := testMeterConfig()
	cfg.OtherMetrics = 1
	rows, users := foldMeterRows(cfg), cfg.UserInfoRows()

	direct := newShardWarehouse(0, 0)
	setupFoldFleet(t, direct, []*hive.Warehouse{direct}, rows, users)
	fleets := map[string]*Router{}
	for _, n := range []int{1, 4} {
		router, err := New(Config{Shards: n, Key: "userId"}, newShardWarehouse)
		if err != nil {
			t.Fatal(err)
		}
		var ws []*hive.Warehouse
		for i := 0; i < router.NumShards(); i++ {
			ws = append(ws, router.Replica(i, 0))
		}
		setupFoldFleet(t, router, ws, rows, users)
		fleets[fmt.Sprintf("%d-shard", n)] = router
	}

	// Some queries group by feeder and regionId; check that those columns
	// really are stored dictionary- and run-length-encoded.
	stmt, err := hive.Parse(`SELECT feeder, regionId, count(*) FROM meterdata GROUP BY feeder, regionId`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := direct.Explain(stmt.(*hive.SelectStmt), hive.ExecOptions{DisableIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if enc := strings.Join(plan.EncodedColumns, " "); !strings.Contains(enc, "feeder(dict") || !strings.Contains(enc, "regionId(rle") {
		t.Fatalf("EncodedColumns = %v, want feeder dictionary-encoded and regionId run-length", plan.EncodedColumns)
	}

	const days = `ts>='2012-12-02' AND ts<'2012-12-07'`
	queries := []string{
		`SELECT regionId, avg(powerConsumed), sum(powerConsumed), max(powerConsumed) FROM meterdata WHERE ` + days + ` GROUP BY regionId`,
		`SELECT count(*), sum(powerConsumed), max(pate1) FROM meterdata WHERE ` + days + ` AND pate1>40`,
		`SELECT t2.regionId, count(*), sum(t1.powerConsumed) FROM meterdata t1 JOIN userInfo t2 ON t1.userId=t2.userId
			WHERE t1.userId>=5 AND t1.userId<=30 AND t1.ts>='2012-12-02' AND t1.ts<'2012-12-07' GROUP BY t2.regionId`,
		`SELECT feeder, count(*), sum(powerConsumed), min(pate1) FROM meterdata WHERE ts>='2012-12-03' GROUP BY feeder`,
		`SELECT ts, count(*), avg(powerConsumed), max(pate1) FROM meterdata WHERE userId>=3 AND userId<=33 GROUP BY ts`,
		`SELECT regionId, count(*), min(powerConsumed) FROM meterdata WHERE userId>=3 AND userId<=33 GROUP BY regionId`,
		`SELECT regionId, feeder, count(*), sum(pate1) FROM meterdata WHERE ` + days + ` GROUP BY regionId, feeder`,
		`SELECT regionId, sum(powerConsumed*pate1), count(*) FROM meterdata WHERE ts<'2012-12-05' GROUP BY regionId`,
	}
	type run struct {
		name string
		exec func(sql string) (*hive.Result, error)
	}
	var runs []run
	for _, o := range []struct {
		name string
		opts hive.ExecOptions
	}{
		{"row", hive.ExecOptions{DisableVectorized: true}},
		{"scan", hive.ExecOptions{DisableIndexes: true}},
		{"scan+row", hive.ExecOptions{DisableIndexes: true, DisableVectorized: true}},
	} {
		opts := o.opts
		runs = append(runs, run{"direct " + o.name, func(sql string) (*hive.Result, error) {
			return direct.ExecOpts(sql, opts)
		}})
		for name, r := range fleets {
			r := r
			runs = append(runs, run{name + " " + o.name, func(sql string) (*hive.Result, error) {
				return r.ExecContext(context.Background(), sql, opts)
			}})
		}
	}
	for name, r := range fleets {
		r := r
		runs = append(runs, run{name, func(sql string) (*hive.Result, error) {
			return r.ExecContext(context.Background(), sql, hive.ExecOptions{})
		}})
	}

	for _, sql := range queries {
		want, err := direct.Exec(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%q: empty result, the comparison would prove nothing", sql)
		}
		if isJoin := strings.Contains(sql, "JOIN"); want.Stats.Vectorized == isJoin {
			t.Fatalf("%q: Vectorized = %v", sql, want.Stats.Vectorized)
		}
		for _, r := range runs {
			got, err := r.exec(sql)
			if err != nil {
				t.Fatalf("%s %q: %v", r.name, sql, err)
			}
			if err := foldMatch(want.Columns, want.Rows, got.Rows); err != nil {
				t.Errorf("%s %q: %v", r.name, sql, err)
			}
		}
	}
}

package hive

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
)

// TestMergeValuesRejectsBadPartial: a partial that fails to decode is an
// error on the reduce side, never silently passed through unmerged.
func TestMergeValuesRejectsBadPartial(t *testing.T) {
	q := &compiledQuery{slotFuncs: []dgf.AggFunc{dgf.AggSum, dgf.AggCount}}
	good := appendPartials(nil, []dgf.Accumulator{{Func: dgf.AggSum, Value: 2.5, N: 2}, {Func: dgf.AggCount, Value: 2, N: 2}})
	merged, err := q.mergeValues([][]byte{good, good})
	if err != nil {
		t.Fatal(err)
	}
	if merged[0].Value != 5 || merged[0].N != 4 || merged[1].Value != 4 {
		t.Fatalf("merged = %+v", merged)
	}
	for _, bad := range []string{"2.5:2", "x:1,2:2", "2.5:2,3"} {
		if _, err := q.mergeValues([][]byte{good, []byte(bad)}); err == nil {
			t.Errorf("partial %q merged without error", bad)
		}
	}
}

// setupFoldMeter loads a day-major RCFile meter table whose row groups hold
// exactly one day each (users rows per day), so a ts range reads a whole
// number of groups and doubling the days doubles rows and groups read.
func setupFoldMeter(t *testing.T, w *Warehouse, users, days int) {
	t.Helper()
	mustExec(t, w, `CREATE TABLE foldmeter (userId bigint, regionId bigint, ts timestamp, powerConsumed double) STORED AS RCFILE`)
	tbl, _ := w.Table("foldmeter")
	tbl.RowGroupRows = users
	if err := w.LoadRows(tbl, meterRows(users, 8, days)); err != nil {
		t.Fatal(err)
	}
}

// TestFoldAllocsScaleWithGroupsNotRows: a vectorised GROUP BY allocates per
// group and per row group, not per row read — doubling the scanned days
// adds a bounded number of allocations per extra row group.
func TestFoldAllocsScaleWithGroupsNotRows(t *testing.T) {
	const users = 512
	w := testWarehouse(1 << 22)
	setupFoldMeter(t, w, users, 24)

	measure := func(days int) (allocs float64, rows int64) {
		sql := fmt.Sprintf(`SELECT regionId, sum(powerConsumed), count(*), max(powerConsumed)
			FROM foldmeter WHERE ts>='2012-12-03' AND ts<'2012-12-%02d' GROUP BY regionId`, 3+days)
		res := mustExec(t, w, sql) // warm the side-file caches
		if !res.Stats.Vectorized || len(res.Rows) != 8 {
			t.Fatalf("%d days: vectorized=%v, %d groups", days, res.Stats.Vectorized, len(res.Rows))
		}
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := w.Exec(sql); err != nil {
				t.Fatal(err)
			}
		})
		return allocs, res.Stats.RecordsRead
	}
	a1, r1 := measure(8)
	a2, r2 := measure(16)
	extraRows := r2 - r1
	extraGroups := extraRows / users
	if extraRows < 8*users {
		t.Fatalf("doubling the days read only %d more rows", extraRows)
	}
	growth := a2 - a1
	t.Logf("allocs/query %.0f -> %.0f for %d -> %d rows (%d more row groups)", a1, a2, r1, r2, extraGroups)
	// Decoding a group allocates a handful of column payload copies; the
	// fold itself allocates nothing per row.
	if limit := float64(16*extraGroups + 32); growth > limit {
		t.Fatalf("allocs grew by %.0f for %d extra rows in %d row groups, want <= %.0f",
			growth, extraRows, extraGroups, limit)
	}
}

// TestFoldShufflePairsPerGroup: a traced GROUP BY reports its shuffle volume
// on the mapreduce span, and each map task ships at most one pair per group
// on both the vectorised and the row path.
func TestFoldShufflePairsPerGroup(t *testing.T) {
	w := testWarehouse(1 << 11) // small blocks: several splits
	setupFoldMeter(t, w, 64, 16)
	const sql = `SELECT regionId, avg(powerConsumed), count(*) FROM foldmeter WHERE ts>='2012-12-02' GROUP BY regionId`
	for _, opts := range []ExecOptions{{}, {DisableVectorized: true}} {
		sp := trace.New("query")
		res, err := w.ExecContext(trace.NewContext(context.Background(), sp), sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		sp.Finish()
		snap := sp.Snapshot()
		mr := snap.Find("mapreduce")
		if mr == nil {
			t.Fatal("no mapreduce span")
		}
		attr := func(key string) int64 {
			n, err := strconv.ParseInt(mr.Attr(key), 10, 64)
			if err != nil {
				t.Fatalf("mapreduce span attr %s=%q: %v", key, mr.Attr(key), err)
			}
			return n
		}
		pairs, bytes, splits := attr("shuffle_pairs"), attr("shuffle_bytes"), attr("splits")
		groups := int64(len(res.Rows))
		if splits < 2 || groups != 8 {
			t.Fatalf("vectorized=%v: %d splits, %d groups; the test needs several of each", !opts.DisableVectorized, splits, groups)
		}
		if pairs < groups || pairs > splits*groups {
			t.Errorf("vectorized=%v: shuffle_pairs=%d, want %d..%d (groups..splits x groups) for %d rows read",
				!opts.DisableVectorized, pairs, groups, splits*groups, res.Stats.RecordsRead)
		}
		if bytes <= 0 {
			t.Errorf("shuffle_bytes=%d, want > 0", bytes)
		}
	}
}

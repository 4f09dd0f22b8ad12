package hive

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/mapreduce"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// This file is the map side of a SELECT's query job. Each map task owns a
// queryTask: projections emit one position-keyed row per qualifying record,
// aggregations fold every qualifying row into the task's aggTable and emit
// one encoded partial per group when the task ends. Batch, row and join
// inputs fold into the same table through the same accumulators; only how a
// row's group and argument values are fetched differs.

// queryTask is the state one map task of a query job shares across its
// records (Hadoop's Mapper between setup and cleanup).
type queryTask struct {
	q          *compiledQuery
	vecFilters []vecPred
	joinMap    map[string][]storage.Row
	// agg is the task's aggregation table; nil for projections.
	agg *aggTable
	// key is the projection sort-key scratch, probe the join-key scratch.
	key, probe []byte
}

// mapRecord filters one record (a whole row group on the vectorised path)
// and routes each qualifying, possibly joined, row onward.
func (t *queryTask) mapRecord(rec mapreduce.Record, emit mapreduce.Emit) error {
	q := t.q
	if rec.Batch != nil {
		// Vectorised path (join-free by construction): the kernels shrink a
		// selection vector over the whole decoded group. Aggregates fold
		// straight from the column vectors; projections materialise only
		// the surviving positions, reusing one scratch row.
		b := rec.Batch
		sel := b.Sel()
		for i := 0; i < b.Rows; i++ {
			sel = append(sel, i)
		}
		for _, k := range t.vecFilters {
			if sel = k(b, sel); len(sel) == 0 {
				return nil
			}
		}
		if t.agg != nil {
			t.agg.foldBatch(b, sel)
			return nil
		}
		for _, ri := range sel {
			rec.RowInBlock = ri
			t.project(b.MaterialiseRow(ri), nil, rec, emit)
		}
		return nil
	}
	// Columnar readers deliver decoded (possibly projected) rows; text
	// readers deliver encoded lines.
	leftRow := rec.Row
	if leftRow == nil {
		var err error
		leftRow, err = storage.DecodeTextRow(q.left.Schema, string(rec.Data))
		if err != nil {
			return err
		}
	}
	if q.right == nil {
		for _, f := range q.filters {
			if !f(leftRow, nil) {
				return nil
			}
		}
		t.emitRow(leftRow, nil, rec, emit)
		return nil
	}
	// Join: probe the broadcast map, then filter on the combined row.
	t.probe = leftRow[q.joinLeft].AppendText(t.probe[:0])
	for _, rightRow := range t.joinMap[string(t.probe)] {
		ok := true
		for _, f := range q.filters {
			if !f(leftRow, rightRow) {
				ok = false
				break
			}
		}
		if ok {
			t.emitRow(leftRow, rightRow, rec, emit)
		}
	}
	return nil
}

// emitRow routes one qualifying (joined) row into the task's aggregation
// table or the projection output.
func (t *queryTask) emitRow(l, r storage.Row, rec mapreduce.Record, emit mapreduce.Emit) {
	if t.agg != nil {
		t.agg.foldRow(l, r)
		return
	}
	t.project(l, r, rec, emit)
}

// project emits one projected output row keyed by its source position, so
// output order is deterministic. RCFile records share their row group's
// offset, so the in-group row position breaks the tie (it is 0 for every
// text record). The key is built in the task's scratch.
func (t *queryTask) project(l, r storage.Row, rec mapreduce.Record, emit mapreduce.Emit) {
	out := make(storage.Row, len(t.q.items))
	for i, it := range t.q.items {
		out[i] = it.expr(l, r)
	}
	t.key = fmt.Appendf(t.key[:0], "%s:%012d:%06d", rec.Path, rec.Offset, rec.RowInBlock)
	emit(string(t.key), []byte(storage.EncodeTextRow(out)))
}

// flush ends the task: an aggregation emits its groups' partials.
func (t *queryTask) flush(emit mapreduce.Emit) error {
	if t.agg != nil {
		t.agg.flush(emit)
	}
	return nil
}

// aggTable is one map task's aggregation state: an accumulator vector per
// group, found through a binary group key built from typed cells (no text
// rendering per row). Each group's shuffle key — groupKeyOf's text, which
// reducers, shard merges and Finalize parse — is rendered once, when the
// group first appears.
type aggTable struct {
	q     *compiledQuery
	width int              // accumulator slots per group
	index map[string]int32 // binary group key → group ordinal
	keys  []string         // shuffle key per ordinal
	accs  []dgf.Accumulator
	kbuf  []byte  // binary key scratch
	gsel  []int32 // group ordinal per selected row of the current batch
}

func newAggTable(q *compiledQuery) *aggTable {
	return &aggTable{q: q, width: len(q.slotFuncs), index: map[string]int32{}}
}

// group returns the ordinal of the group whose binary key is in t.kbuf,
// adding the group when it is new: text renders its shuffle key.
func (t *aggTable) group(text func() string) int32 {
	if g, ok := t.index[string(t.kbuf)]; ok {
		return g
	}
	g := int32(len(t.keys))
	t.index[string(t.kbuf)] = g
	t.keys = append(t.keys, text())
	for _, f := range t.q.slotFuncs {
		t.accs = append(t.accs, dgf.Accumulator{Func: f})
	}
	return g
}

// appendKeyValue appends a cell's binary group-key form. A key position
// always holds one column, hence one kind, so no kind tag is needed.
func appendKeyValue(dst []byte, v storage.Value) []byte {
	switch v.Kind {
	case storage.KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	case storage.KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	default:
		return binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	}
}

// foldRow folds one (joined) row into its group.
func (t *aggTable) foldRow(l, r storage.Row) {
	q := t.q
	t.kbuf = t.kbuf[:0]
	for _, g := range q.groupBy {
		t.kbuf = appendKeyValue(t.kbuf, g(l, r))
	}
	g := int(t.group(func() string { return q.groupKeyOf(l, r) }))
	accs := t.accs[g*t.width : (g+1)*t.width]
	for _, a := range q.aggs {
		switch a.kind {
		case aggCount:
			accs[a.slots[0]].Fold(0)
		case aggAvg:
			accs[a.slots[0]].Fold(a.arg(l, r).AsFloat())
			accs[a.slots[1]].Fold(0)
		default:
			accs[a.slots[0]].Fold(a.arg(l, r).AsFloat())
		}
	}
}

// foldBatch folds the selected rows of a decoded row group. Rows fold in
// selection order, exactly as foldRow would see them one at a time, so the
// batch and row paths produce bit-identical accumulators.
func (t *aggTable) foldBatch(b *storage.ColumnBatch, sel []int) {
	if len(sel) == 0 {
		return
	}
	gs := t.batchGroups(b, sel)
	w := t.width
	for _, a := range t.q.aggs {
		s := a.slots[0]
		switch a.kind {
		case aggCount:
			for _, g := range gs {
				t.accs[int(g)*w+s].Fold(0)
			}
			continue
		case aggAvg:
			c := a.slots[1]
			for _, g := range gs {
				t.accs[int(g)*w+c].Fold(0)
			}
		}
		t.foldArg(b, sel, gs, a, s)
	}
}

// foldArg folds aggregate a's argument into slot s of each selected row's
// group: straight from the typed vector when the argument is a bare numeric
// column, through the compiled expression over the materialised row
// otherwise (sum(a*b), string arguments).
func (t *aggTable) foldArg(b *storage.ColumnBatch, sel []int, gs []int32, a *compiledAgg, s int) {
	w := t.width
	if a.argCol >= 0 {
		if v := &b.Cols[a.argCol]; v.Valid {
			switch v.Kind {
			case storage.KindFloat64:
				for k, i := range sel {
					t.accs[int(gs[k])*w+s].Fold(v.Floats[i])
				}
				return
			case storage.KindInt64, storage.KindTime:
				for k, i := range sel {
					t.accs[int(gs[k])*w+s].Fold(float64(v.Ints[i]))
				}
				return
			}
		}
	}
	for k, i := range sel {
		t.accs[int(gs[k])*w+s].Fold(a.arg(b.MaterialiseRow(i), nil).AsFloat())
	}
}

// batchGroups resolves the group ordinal of every selected row. Without
// GROUP BY every row shares one group; otherwise each row's binary key is
// built from its typed group cells.
func (t *aggTable) batchGroups(b *storage.ColumnBatch, sel []int) []int32 {
	gs := t.gsel[:0]
	if len(t.q.groupCols) == 0 {
		g := t.cellGroup(b, sel[0])
		for range sel {
			gs = append(gs, g)
		}
	} else {
		for _, i := range sel {
			gs = append(gs, t.cellGroup(b, i))
		}
	}
	t.gsel = gs
	return gs
}

// cellGroup returns the ordinal of row i's group, keyed by its group cells.
func (t *aggTable) cellGroup(b *storage.ColumnBatch, i int) int32 {
	t.kbuf = t.kbuf[:0]
	for _, c := range t.q.groupCols {
		t.kbuf = appendKeyValue(t.kbuf, b.Cols[c].Value(i))
	}
	return t.group(func() string { return t.q.groupKeyOf(b.MaterialiseRow(i), nil) })
}

// flush emits one encoded partial per group.
func (t *aggTable) flush(emit mapreduce.Emit) {
	var buf []byte
	for g, key := range t.keys {
		buf = appendPartials(buf[:0], t.accs[g*t.width:(g+1)*t.width])
		emit(key, buf)
	}
}

package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/dgf"
	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/shard"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/trace"
	"github.com/smartgrid-oss/dgfindex/internal/wal"
)

// timingBackend is the traced run's view into the server → router
// boundary: it is passed to server.NewWithBackend in place of the router and
// times the two calls that cross it. Embedding the router keeps every
// optional interface the server type-asserts (durable ingest, replica
// health, streaming), so the traced run serves the same program.
type timingBackend struct {
	*shard.Router
	// delay is added to every query's backend time (the sensitivity
	// self-test); zero in normal runs.
	delay time.Duration

	mu               sync.Mutex
	loadMs, appendMs float64 // the most recent load (the loader is serial)
}

// Method sets the server type-asserts on its backend, restated here so a
// drift in either the server or the decorator fails the build.
var (
	_ interface {
		EnableWAL(shard.WALConfig) error
		LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (shard.LoadAck, error)
		WALStats() []wal.ShardStats
		DrainWAL(ctx context.Context) error
		CloseWAL() error
	} = (*timingBackend)(nil)
	_ interface{ Health() []shard.SetHealth } = (*timingBackend)(nil)
	_ interface {
		SelectCursor(ctx context.Context, stmt *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error)
	} = (*timingBackend)(nil)
)

// ExecParsedContext hangs a "bench.backend" span under the request's root
// span, so each traced response carries the backend's share of its wall.
func (t *timingBackend) ExecParsedContext(ctx context.Context, stmt hive.Stmt, opts hive.ExecOptions) (*hive.Result, error) {
	sp := trace.FromContext(ctx).Child("bench.backend")
	defer sp.Finish()
	// Spin rather than sleep: a timer sleep of a few hundred µs overshoots
	// by up to a millisecond, and a busy wait also costs CPU like a real
	// slowdown would.
	for start := time.Now(); time.Since(start) < t.delay; {
	}
	return t.Router.ExecParsedContext(trace.NewContext(ctx, sp), stmt, opts)
}

// LoadRowsDurable times the router's durable load and the wal_append spans
// its commits record under the span it passes down.
func (t *timingBackend) LoadRowsDurable(ctx context.Context, table string, rows []storage.Row, sync bool) (shard.LoadAck, error) {
	sp := trace.New("bench.load")
	start := time.Now()
	ack, err := t.Router.LoadRowsDurable(trace.NewContext(ctx, sp), table, rows, sync)
	loadMs := ms(time.Since(start))
	sp.Finish()
	var appendMs float64
	snap := sp.Snapshot()
	for _, c := range snap.Children {
		if c.Name == "wal_append" {
			appendMs += c.WallMs
		}
	}
	t.mu.Lock()
	t.loadMs, t.appendMs = loadMs, appendMs
	t.mu.Unlock()
	return ack, err
}

func (t *timingBackend) lastLoad() (loadMs, appendMs float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.loadMs, t.appendMs
}

// spanLayers is what one traced query's span tree says about each layer.
type spanLayers struct {
	selfMs          float64 // server: response wall − bench.backend
	backendMs       float64 // shard: the bench.backend span (Router.ExecParsedContext)
	scatterSelfMs   float64 // shard: scatter − slowest shard
	stragglerMs     float64 // shard: slowest − fastest shard
	targets         int
	warehouseSelfMs float64 // hive: slowest shard's warehouse − its mapreduce
	mapreduceMs     float64
	nsPerRecord     float64 // slowest shard's mapreduce wall per record (0: none read)
	slices          int     // dgf: GFU slices over every shard
}

func parseSpans(resp *queryResponse) (spanLayers, error) {
	var l spanLayers
	root := resp.Trace
	if root == nil {
		return l, fmt.Errorf("traced response carries no span tree")
	}
	be := root.Find("bench.backend")
	sc := root.Find("scatter")
	if be == nil || sc == nil {
		return l, fmt.Errorf("span tree lacks bench.backend or scatter")
	}
	l.selfMs = resp.WallMs - be.WallMs
	l.backendMs = be.WallMs
	var slowest, fastest *trace.SpanSnapshot
	for i := range sc.Children {
		c := &sc.Children[i]
		if !strings.HasPrefix(c.Name, "shard ") {
			continue
		}
		l.targets++
		if slowest == nil || c.WallMs > slowest.WallMs {
			slowest = c
		}
		if fastest == nil || c.WallMs < fastest.WallMs {
			fastest = c
		}
		c.Walk(func(s *trace.SpanSnapshot) {
			if s.Name == "warehouse" {
				n, _ := strconv.Atoi(s.Attr("gfu_slices"))
				l.slices += n
			}
		})
	}
	if slowest == nil {
		return l, fmt.Errorf("scatter span has no shard children")
	}
	l.scatterSelfMs = sc.WallMs - slowest.WallMs
	l.stragglerMs = slowest.WallMs - fastest.WallMs
	if wh := slowest.Find("warehouse"); wh != nil {
		l.warehouseSelfMs = wh.WallMs
		if mr := wh.Find("mapreduce"); mr != nil {
			l.warehouseSelfMs -= mr.WallMs
			l.mapreduceMs = mr.WallMs
			if recs, _ := strconv.ParseFloat(mr.Attr("records"), 64); recs > 0 {
				l.nsPerRecord = mr.WallMs * 1e6 / recs
			}
		}
	}
	return l, nil
}

// layerProbe times in-process calls into single modules on replica 0 of
// shard 0, with the run's queries as inputs.
type layerProbe struct {
	parseUs, hivePlanMs, dgfPlanMs []float64
}

func (p *layerProbe) query(w *hive.Warehouse, q query) error {
	start := time.Now()
	if _, err := hive.Normalize(q.sql); err != nil {
		return err
	}
	stmt, err := hive.Parse(q.sql)
	if err != nil {
		return err
	}
	p.parseUs = append(p.parseUs, float64(time.Since(start).Nanoseconds())/1e3)
	sel, ok := stmt.(*hive.SelectStmt)
	if !ok {
		return fmt.Errorf("%q is not a SELECT", q.sql)
	}
	start = time.Now()
	if _, err := w.Explain(sel, hive.ExecOptions{}); err != nil {
		return err
	}
	p.hivePlanMs = append(p.hivePlanMs, ms(time.Since(start)))

	t, err := w.Table("meterdata")
	if err != nil {
		return err
	}
	var aggs []dgf.AggSpec
	if q.isAgg() {
		if aggs, err = dgf.ParseAggSpecs("sum(powerConsumed);count(*)"); err != nil {
			return err
		}
	}
	start = time.Now()
	if _, err := t.Dgf.Plan(w.Cluster, q.ranges(), aggs, dgf.PlanOptions{}); err != nil {
		return err
	}
	p.dgfPlanMs = append(p.dgfPlanMs, ms(time.Since(start)))
	return nil
}

// batchProjection is the column set batch_scan's reports read.
var batchProjection = []string{"userId", "regionId", "ts", "powerConsumed", "pate1"}

// decodeProbe decodes every row group of one replica's meterdata files with
// the batch_scan projection through storage.ReadGroupColumns. It returns
// ns per decoded row, rows per row group and the data file count.
func decodeProbe(w *hive.Warehouse) (nsPerRow, rowsPerGroup float64, files int, err error) {
	t, err := w.Table("meterdata")
	if err != nil {
		return 0, 0, 0, err
	}
	project := make([]bool, t.Schema.Len())
	for _, c := range batchProjection {
		project[t.Schema.ColIndex(c)] = true
	}
	infos, err := w.FS.ListFiles(t.Dir)
	if err != nil {
		return 0, 0, 0, err
	}
	batch := storage.NewColumnBatch(t.Schema)
	var rows, groups int
	var elapsed time.Duration
	for _, fi := range infos {
		offs, err := storage.ReadGroupIndex(w.FS, fi.Path)
		if err != nil {
			return 0, 0, 0, err
		}
		r, err := w.FS.Open(fi.Path)
		if err != nil {
			return 0, 0, 0, err
		}
		start := time.Now()
		for _, off := range offs {
			if _, err := storage.ReadGroupColumns(r, off, t.Schema, project, batch); err != nil {
				return 0, 0, 0, err
			}
			rows += batch.Rows
		}
		elapsed += time.Since(start)
		groups += len(offs)
	}
	if rows == 0 || groups == 0 {
		return 0, 0, len(infos), fmt.Errorf("decode probe read no rows")
	}
	return float64(elapsed.Nanoseconds()) / float64(rows), float64(rows) / float64(groups), len(infos), nil
}

// applyProbe times Warehouse.LoadRowsByName, the call a WAL apply makes, on
// an isolated warehouse the size of one replica (a quarter of the users,
// the same month, table and index) with one replica's slice of a load.
func applyProbe(users int, seed int64, tk ticks, loads int) ([]float64, error) {
	cfg := meterConfig(users/numShards, seed)
	w := newWarehouse()
	if _, err := w.Exec(meterDDL); err != nil {
		return nil, err
	}
	if err := w.LoadRowsByName("meterdata", cfg.AllRows()); err != nil {
		return nil, err
	}
	if _, err := w.Exec(indexDDL); err != nil {
		return nil, err
	}
	t, err := w.Table("meterdata")
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 0; k < loads; k++ {
		cells, _ := tk.rows(k)
		var rows []storage.Row
		for _, c := range cells[:rowsPerLoad/numShards] {
			row, err := wireRow(t.Schema, c)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
		start := time.Now()
		if err := w.LoadRowsByName("meterdata", rows); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// wireRow converts one generated JSON row to a storage row.
func wireRow(schema *storage.Schema, cells []any) (storage.Row, error) {
	row := make(storage.Row, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case int64:
			if schema.Col(i).Kind == storage.KindTime {
				row[i] = storage.TimeUnix(v)
			} else {
				row[i] = storage.Int64(v)
			}
		case float64:
			row[i] = storage.Float64(v)
		default:
			return nil, fmt.Errorf("cell %d: unexpected %T", i, c)
		}
	}
	return row, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median returns the middle value (the mean of the two middle values for an
// even count); zero for no values.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile by linear interpolation between closest
// ranks; zero for no values.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

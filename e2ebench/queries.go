package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/gridfile"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Query kinds. The analyst kinds are the paper's Listing 4 aggregation,
// Listing 5 GROUP BY and the point lookup; the batch kinds are the wide
// reports that make MapReduce, decode and aggregation do the work.
const (
	kindAgg       = iota // sum/count over an MDRQ box: the precompute-header path
	kindGroup            // GROUP BY regionId over an MDRQ box
	kindPoint            // SELECT * for one user on one day
	kindWideGroup        // multi-day GROUP BY regionId with avg/sum/max
	kindPate             // aggregates with a predicate on non-indexed pate1
	kindJoin             // Listing 6 join with userInfo, grouped by region
)

// query is one generated request: its SQL plus the bounds the reference
// evaluator and the per-layer planners need.
type query struct {
	kind               int
	sql                string
	userLo, userHi     int64
	regionLo, regionHi int64
	tsLo, tsHi         int64 // ts >= tsLo AND ts < tsHi (Unix seconds)
	pateMin            float64
}

// isAgg reports whether the query is an aggregation the precompute headers
// could answer (sum and count only).
func (q query) isAgg() bool { return q.kind == kindAgg }

// ranges renders the query's indexed-dimension bounds for dgf.Index.Plan.
func (q query) ranges() map[string]gridfile.Range {
	return map[string]gridfile.Range{
		"userid":   {Lo: storage.Int64(q.userLo), Hi: storage.Int64(q.userHi)},
		"regionid": {Lo: storage.Int64(q.regionLo), Hi: storage.Int64(q.regionHi)},
		"ts":       {Lo: storage.TimeUnix(q.tsLo), Hi: storage.TimeUnix(q.tsHi), HiOpen: true},
	}
}

// generator derives query i of a run from (seed, i) alone, so two clients
// pulling indexes from one counter replay the same sequence on every run
// with that seed, and no literal repeats (the result and plan caches are
// bypassed by construction).
type generator struct {
	cfg  workload.MeterConfig
	seed int64
	mix  []int // query kinds, in the order query indexes cycle through them
}

var workloadMix = map[string][]int{
	// 40% Listing-4 aggregations, 30% Listing-5 GROUP BY, 30% point lookups.
	"analyst_mdrq": {kindAgg, kindAgg, kindAgg, kindAgg, kindGroup, kindGroup, kindGroup, kindPoint, kindPoint, kindPoint},
	"batch_scan":   {kindWideGroup, kindWideGroup, kindPate, kindJoin},
	// The query client beside the loader runs the analyst mix.
	"stream_ingest": {kindAgg, kindAgg, kindAgg, kindAgg, kindGroup, kindGroup, kindGroup, kindPoint, kindPoint, kindPoint},
}

func newGenerator(cfg workload.MeterConfig, wl string, seed int64) *generator {
	return &generator{cfg: cfg, seed: seed, mix: workloadMix[wl]}
}

const day = 24 * 3600

// traced reports whether a traced run asks for query i's span tree. Whole
// mix cycles alternate, so the traced and untraced halves hold the same
// query shapes and trace.overhead_pct compares like with like.
func (g *generator) traced(i int) bool { return i/len(g.mix)%2 == 0 }

// query returns query i. Kinds cycle through the mix and the batch kinds'
// day spans cycle too, so every run holds the same proportions of each
// query shape; only the bounds are random. (A batch_scan window holds ~100
// queries, too few for random draws to even out.)
func (g *generator) query(i int) query {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(i)*7919 + 17))
	n := len(g.mix)
	cycle := (i%n + n) % n
	round := (i/n%12 + 12) % 12
	q := query{kind: g.mix[cycle], regionLo: 1, regionHi: int64(g.cfg.Regions), userLo: 1, userHi: int64(g.cfg.Users)}
	switch q.kind {
	case kindAgg, kindGroup:
		// Log-uniform user width: point to ~1% of the table.
		width := int64(math.Exp(rng.Float64() * math.Log(0.15*float64(g.cfg.Users))))
		q.userLo, q.userHi = g.userRange(rng, max(width, 2))
		q.regionLo = 1 + rng.Int63n(int64(g.cfg.Regions))
		q.regionHi = q.regionLo + rng.Int63n(int64(g.cfg.Regions)-q.regionLo+1)
		q.tsLo, q.tsHi = g.dayRange(rng, 1+rng.Intn(5))
	case kindPoint:
		u := 1 + rng.Int63n(int64(g.cfg.Users))
		q.userLo, q.userHi = u, u
		q.regionLo, q.regionHi = g.cfg.RegionOf(u), g.cfg.RegionOf(u)
		q.tsLo, q.tsHi = g.dayRange(rng, 1)
	case kindWideGroup, kindPate:
		// 2-4 days of every user: 6.7-13% of the rows.
		q.tsLo, q.tsHi = g.dayRange(rng, 2+round%3)
		q.pateMin = float64(10 + rng.Intn(80))
	case kindJoin:
		// 3-6 days of half to all users: 5-20% of the rows.
		q.userLo, q.userHi = g.userRange(rng, int64(g.cfg.Users)/2+rng.Int63n(int64(g.cfg.Users)/2))
		q.tsLo, q.tsHi = g.dayRange(rng, 3+round%4)
	}
	where := fmt.Sprintf("userId>=%d AND userId<=%d AND regionId>=%d AND regionId<=%d AND ts>='%s' AND ts<'%s'",
		q.userLo, q.userHi, q.regionLo, q.regionHi, tsLit(q.tsLo), tsLit(q.tsHi))
	tsOnly := fmt.Sprintf("ts>='%s' AND ts<'%s'", tsLit(q.tsLo), tsLit(q.tsHi))
	switch q.kind {
	case kindAgg:
		q.sql = "SELECT sum(powerConsumed), count(*) FROM meterdata WHERE " + where
	case kindGroup:
		q.sql = "SELECT regionId, sum(powerConsumed), count(*) FROM meterdata WHERE " + where + " GROUP BY regionId"
	case kindPoint:
		q.sql = fmt.Sprintf("SELECT * FROM meterdata WHERE userId=%d AND regionId=%d AND ts>='%s' AND ts<'%s'",
			q.userLo, q.regionLo, tsLit(q.tsLo), tsLit(q.tsHi))
	case kindWideGroup:
		q.sql = "SELECT regionId, avg(powerConsumed), sum(powerConsumed), max(powerConsumed) FROM meterdata WHERE " +
			tsOnly + " GROUP BY regionId"
	case kindPate:
		q.sql = fmt.Sprintf("SELECT count(*), sum(powerConsumed), max(pate1) FROM meterdata WHERE %s AND pate1>%g", tsOnly, q.pateMin)
	case kindJoin:
		q.sql = fmt.Sprintf("SELECT t2.regionId, count(*), sum(t1.powerConsumed) FROM meterdata t1 JOIN userInfo t2 ON t1.userId=t2.userId "+
			"WHERE t1.userId>=%d AND t1.userId<=%d AND t1.ts>='%s' AND t1.ts<'%s' GROUP BY t2.regionId",
			q.userLo, q.userHi, tsLit(q.tsLo), tsLit(q.tsHi))
	}
	return q
}

// userRange draws a userId range of about width users whose bounds avoid
// the index's cell edges.
func (g *generator) userRange(rng *rand.Rand, width int64) (lo, hi int64) {
	users := int64(g.cfg.Users)
	width = min(width, users-2)
	lo = 1 + rng.Int63n(users-width+1)
	hi = lo + width - 1
	if (lo-1)%userCell == 0 {
		lo++
	}
	if hi%userCell == 0 {
		hi--
	}
	return lo, hi
}

// dayRange draws days consecutive base days. Both bounds sit a random
// number of seconds past midnight, so they cut through the index's one-day
// ts cells while selecting whole days of the once-a-day (midnight)
// readings. Second-grained bounds also keep a run's literals distinct, so
// the result cache never answers; the ~10^2 same-span batch_scan GROUP BYs
// of a window would collide among whole-hour bounds.
func (g *generator) dayRange(rng *rand.Rand, days int) (lo, hi int64) {
	first := 1 + rng.Intn(g.cfg.Days-days) // first included day, >= 1
	start := g.cfg.Start.Unix()
	lo = start + int64(first-1)*day + int64(1+rng.Intn(day-1))
	hi = start + int64(first+days-1)*day + int64(1+rng.Intn(day-1))
	return lo, hi
}

func tsLit(sec int64) string { return time.Unix(sec, 0).UTC().Format("2006-01-02 15:04:05") }

// reference holds the generated base rows column-wise for the brute-force
// evaluator (a storage.Row per reading would double the process's memory).
// byDay lists the rows of each base day, so a query scans only the days
// its ts range touches.
type reference struct {
	user, region, ts []int64
	metrics          [][]float64 // powerConsumed, pate1..pate4
	start            int64       // first base day, Unix seconds
	byDay            [][]int32
}

func newReference(cfg workload.MeterConfig, rows []storage.Row) *reference {
	r := &reference{start: cfg.Start.Unix(), byDay: make([][]int32, cfg.Days)}
	for i, row := range rows {
		r.user = append(r.user, row[0].I)
		r.region = append(r.region, row[1].I)
		r.ts = append(r.ts, row[2].I)
		d := (row[2].I - r.start) / day
		r.byDay[d] = append(r.byDay[d], int32(i))
	}
	for c := 3; c < len(rows[0]); c++ {
		col := make([]float64, len(rows))
		for i, row := range rows {
			col[i] = row[c].F
		}
		r.metrics = append(r.metrics, col)
	}
	return r
}

// pointRow renders base row i as the server's JSON encoding decodes it:
// numbers as float64, the timestamp as RFC 3339 text.
func (r *reference) pointRow(i int) []any {
	out := []any{float64(r.user[i]), float64(r.region[i]), time.Unix(r.ts[i], 0).UTC().Format(time.RFC3339)}
	for _, col := range r.metrics {
		out = append(out, col[i])
	}
	return out
}

type refAgg struct {
	count    int64
	sum, max float64
}

// answer evaluates q over the base rows and renders it as the response's
// expected rows, with float64 cells as JSON decodes them.
func (r *reference) answer(q query) [][]any {
	groups := map[int64]*refAgg{}
	var point [][]any
	first := max((q.tsLo-r.start)/day, 0)
	last := min((q.tsHi-1-r.start)/day, int64(len(r.byDay))-1)
	for d := first; d <= last; d++ {
		r.scanDay(q, r.byDay[d], groups, &point)
	}
	if q.kind == kindPoint {
		return point
	}
	if q.kind == kindAgg || q.kind == kindPate {
		a := groups[0]
		if a == nil {
			a = &refAgg{}
		}
		if q.kind == kindAgg {
			return [][]any{{a.sum, float64(a.count)}}
		}
		var maxCell any = a.max
		if a.count == 0 {
			maxCell = nil
		}
		return [][]any{{float64(a.count), a.sum, maxCell}}
	}
	var out [][]any
	for key, a := range groups {
		k := float64(key)
		switch q.kind {
		case kindGroup:
			out = append(out, []any{k, a.sum, float64(a.count)})
		case kindWideGroup:
			out = append(out, []any{k, a.sum / float64(a.count), a.sum, a.max})
		case kindJoin:
			out = append(out, []any{k, float64(a.count), a.sum})
		}
	}
	return out
}

// scanDay folds the rows of one base day that match q into groups (or, for
// point lookups, into point).
func (r *reference) scanDay(q query, rows []int32, groups map[int64]*refAgg, point *[][]any) {
	for _, i := range rows {
		if r.ts[i] < q.tsLo || r.ts[i] >= q.tsHi || r.user[i] < q.userLo || r.user[i] > q.userHi ||
			r.region[i] < q.regionLo || r.region[i] > q.regionHi {
			continue
		}
		power, pate1 := r.metrics[0][i], r.metrics[1][i]
		if q.kind == kindPate && !(pate1 > q.pateMin) {
			continue
		}
		if q.kind == kindPoint {
			*point = append(*point, r.pointRow(int(i)))
			continue
		}
		key := int64(0)
		if q.kind == kindGroup || q.kind == kindWideGroup || q.kind == kindJoin {
			key = r.region[i]
		}
		a := groups[key]
		if a == nil {
			a = &refAgg{max: math.Inf(-1)}
			groups[key] = a
		}
		a.count++
		a.sum += power
		v := power
		if q.kind == kindPate {
			v = pate1
		}
		a.max = math.Max(a.max, v)
	}
}

func sortRows(rows [][]any) {
	sort.Slice(rows, func(i, j int) bool { return fmt.Sprint(rows[i]) < fmt.Sprint(rows[j]) })
}

// Float tolerance for SUM and AVG: the fleet sums per shard and per split in
// a different order than the reference, so totals of up to 300k two-decimal
// readings may differ in the last bits. A cell matches when it is within
// 1e-9 relative (or 1e-6 absolute, for values near zero) of the reference.
// COUNT, MAX, keys and point rows must match exactly.
const relTol, absTol = 1e-9, 1e-6

// sameAnswer compares a response's rows with the reference's. An empty
// aggregate may come back as a null or zero sum; both match a zero count.
func sameAnswer(got, want [][]any) error {
	sortRows(got)
	sortRows(want)
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d cell %d = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func sameCell(got, want any) bool {
	wf, wok := want.(float64)
	if !wok {
		return got == want
	}
	if got == nil {
		return wf == 0
	}
	gf, ok := got.(float64)
	if !ok {
		return false
	}
	d := math.Abs(gf - wf)
	return d <= absTol || d <= relTol*math.Abs(wf)
}

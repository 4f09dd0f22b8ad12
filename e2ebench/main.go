// Command e2ebench is the repository benchmark: it builds an in-process
// dgfserver fleet (4 shards × 2 replicas, hash-routed on userId, WAL on with
// the default interval fsync, default server.Config), serves it over
// loopback HTTP and drives one workload against it from at most two client
// goroutines. It prints every metric by name and unit, then one JSON result
// line, and exits non-zero if any answer is wrong.
//
//	e2ebench --workload analyst_mdrq|batch_scan|stream_ingest --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// metrics instead, read from the span trees the server returns for traced
// requests and from timed calls into each module's public functions.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	delay    time.Duration // sensitivity self-test: added to every backend query
	users    int
	workDir  string // WAL logs live under it
	setups   int    // set-ups per run; setup_s is their median
	log      func(format string, args ...any)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "analyst_mdrq, batch_scan or stream_ingest")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the dataset, queries and loads")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.DurationVar(&o.delay, "inject-delay", 0, "sensitivity self-test: delay added to every backend query (e.g. 1.5ms)")
	flag.Parse()
	o.traced = traceFlag == 1
	o.users = 10000
	o.workDir = ".bench_build"
	o.setups = 3
	o.log = func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if _, ok := workloadMix[o.workload]; !ok || (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload analyst_mdrq|batch_scan|stream_ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		fmt.Printf("%-32s %16.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !res.correct {
		fmt.Fprintln(os.Stderr, "e2ebench: wrong answers:", strings.Join(res.wrong, "; "))
		os.Exit(1)
	}
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	correct           bool
	wrong             []string
	attempted, failed int
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	if len(r.wrong) < 5 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		ms[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// querySample is one /query round trip of the measured window.
type querySample struct {
	i    int
	q    query
	rtt  time.Duration
	resp *queryResponse
	err  error
}

// Loop parameters. The stream loader posts one 1000-row collection interval
// every 333 ms (~3 batches/s). The read-only workloads measure the same load
// path after their window with a closed-loop probe on the otherwise idle
// fleet (each load sent once the previous one is visible), so every
// workload reports every end-to-end metric.
const (
	streamPeriod = 333 * time.Millisecond
	probeLoads   = 90
	warmQueries  = 8
)

// countSet is how many leading query indexes the traced run's count
// metrics average over: fixed per workload so two runs with one seed
// average the same queries.
var countSet = map[string]int{"analyst_mdrq": 200, "batch_scan": 24, "stream_ingest": 0}

func run(o options) (_ *result, err error) {
	res := &result{correct: true}
	steal0, total0 := stealTicks()
	cfg := meterConfig(o.users, o.seed)
	clients := 2
	if o.workload == "stream_ingest" {
		clients = 1
	}
	o.log("# workload=%s seed=%d seconds=%g trace=%v inject_delay=%v", o.workload, o.seed, o.seconds, o.traced, o.delay)
	o.log("# dataset: meterdata %d users x %d days x %d reading(s), other_metrics=%d, %d rows, RCFILE; userInfo %d rows",
		cfg.Users, cfg.Days, cfg.ReadingsPerDay, cfg.OtherMetrics, cfg.Rows(), cfg.Users)
	o.log("# fleet: %d shards x %d replicas, hash(userId), WAL fsync=%s, server.Config defaults, loopback HTTP",
		numShards, numReplicas, fsyncPolicy)
	if o.workload == "stream_ingest" {
		o.log("# loop: open-loop loader, %d rows every %v (async ack) + 1 closed-loop analyst client", rowsPerLoad, streamPeriod)
	} else {
		o.log("# loop: closed, %d clients; then a closed-loop probe of %d loads on the idle fleet", clients, probeLoads)
	}
	o.log("# host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())

	// Set-up, several times: setup_s is the median; the last fleet serves.
	var f *fleet
	var ref *reference
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if f != nil {
			if err = f.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		var tb *timingBackend
		if o.traced || o.delay > 0 {
			tb = &timingBackend{delay: o.delay}
		}
		walDir := filepath.Join(o.workDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), i))
		start := time.Now()
		var rows []storage.Row
		f, rows, err = setupFleet(cfg, walDir, tb)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i == o.setups-1 {
			ref = newReference(cfg, rows)
		}
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()
	o.log("# setup times: %s s", fmtList(setups, "%.3f"))
	rowsBase := float64(len(ref.user))
	var baseSum float64
	for _, v := range ref.metrics[0] {
		baseSum += v
	}
	stored, indexBytes, err := f.storedBytes()
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	c := newClient(f.url)
	defer c.close()
	gen := newGenerator(cfg, o.workload, o.seed)
	tk := ticks{cfg: cfg, seed: o.seed}

	// Warm-up, outside the measured window: a few queries with indexes the
	// window never uses, and one load (tick 0).
	for i := 1; i <= warmQueries; i++ {
		if _, _, err := c.query(ctx, gen.query(-i).sql, false); err != nil {
			return nil, fmt.Errorf("warm-up query: %w", err)
		}
	}
	warm, err := runLoads(ctx, c, f, tk, 0, 1, 0, time.Now().Add(time.Hour))
	if err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up load: %w", warm.err)
	}
	stats0, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}

	// The measured window. Each measured phase starts right after a
	// collection, so the window does not inherit set-up's garbage.
	runtime.GC()
	window := time.Duration(o.seconds * float64(time.Second))
	minQueries := 0
	if o.traced {
		minQueries = 2 * countSet[o.workload]
	}
	var samples []*querySample
	var ing *ingestRun
	var mp *moduleProbes
	var loopWall time.Duration
	start := time.Now()
	deadline := start.Add(window)
	if o.workload == "stream_ingest" {
		var wg sync.WaitGroup
		var loadErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			ing, loadErr = runLoads(ctx, c, f, tk, 1, math.MaxInt, streamPeriod, deadline)
		}()
		samples, loopWall = closedLoop(ctx, c, gen, clients, deadline, minQueries, o.traced)
		wg.Wait()
		if loadErr != nil {
			return nil, loadErr
		}
	} else {
		samples, loopWall = closedLoop(ctx, c, gen, clients, deadline, minQueries, o.traced)
	}
	// The module probes must see the data the window's queries read, so on
	// the read-only workloads they run before the load probe adds part files.
	if o.traced {
		if mp, err = probeModules(f, gen, 2*countSet[o.workload], samples); err != nil {
			return nil, err
		}
	}
	if o.workload != "stream_ingest" {
		runtime.GC()
		if ing, err = runLoads(ctx, c, f, tk, 1, probeLoads, 0, time.Now().Add(time.Hour)); err != nil {
			return nil, err
		}
	}
	stats1, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}

	// Verify every answer against the reference, outside the window.
	var lat []float64
	for _, s := range samples {
		res.attempted++
		if s.err != nil {
			res.failed++
			continue
		}
		lat = append(lat, ms(s.rtt))
		if s.resp.Cached {
			res.fail("query %d was served from the result cache", s.i)
		}
		if err := sameAnswer(s.resp.Rows, ref.answer(s.q)); err != nil {
			res.fail("query %d (%s): %v", s.i, s.q.sql, err)
		}
	}
	res.attempted += ing.attempted
	res.failed += ing.failed
	if ing.err != nil {
		o.log("# load failure: %v", ing.err)
	}
	if err := verifyIngest(ctx, c, f, res, rowsBase, baseSum, warm, ing); err != nil {
		return nil, err
	}
	if res.failed == len(samples)+ing.attempted {
		return nil, fmt.Errorf("every operation failed")
	}

	var acks, visible, late []float64
	for _, s := range ing.samples {
		acks = append(acks, ms(s.acked.Sub(s.due)))
		visible = append(visible, ms(s.visible.Sub(s.due)))
		late = append(late, ms(s.sent.Sub(s.due)))
	}
	o.log("# samples: %d queries (%d failed), %d loads (%d failed); generator ran at most %.3f ms late",
		len(samples), res.failed-ing.failed, ing.attempted, ing.failed, maxOf(late))
	// Not an end-to-end metric: within one run a load's ack ranges from ~4
	// to ~45 ms (the WAL append is ~0.5 ms of it), so percentiles over a
	// stream_ingest run's ~30 loads moved 0.3-0.4 (IQR ÷ median) between
	// runs.
	o.log("# load ack from due time: p50 %.3f ms, p90 %.3f ms", quantile(acks, 0.50), quantile(acks, 0.90))
	if steal1, total1 := stealTicks(); total1 > total0 {
		o.log("# host: hypervisor steal %.2f%% of the VM's CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}

	if !o.traced {
		res.add("setup_s", median(setups), "s")
		res.add("query_p50_ms", quantile(lat, 0.50), "ms")
		res.add("query_p95_ms", quantile(lat, 0.95), "ms")
		res.add("query_qps", float64(len(lat))/loopWall.Seconds(), "1/s")
		// Visibility times are bimodal within a run; p90 sits in the upper
		// mode, where a percentile between the modes would swing from run
		// to run.
		res.add("load_visible_p50_ms", quantile(visible, 0.50), "ms")
		res.add("load_visible_p90_ms", quantile(visible, 0.90), "ms")
		res.add("ingest_rows_per_s", float64(ing.ackedRows)/ing.drained.Sub(ing.firstDue).Seconds(), "1/s")
		res.add("ops_ok_ratio", 1-float64(res.failed)/float64(res.attempted), "ratio")
		res.add("stored_bytes_per_row", float64(stored)/rowsBase, "B")
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.add("peak_rss_mb", rss, "MB")
		return res, nil
	}
	return res, tracedMetrics(o, res, gen, tk, samples, mp, ing, stats0, stats1, indexBytes)
}

// closedLoop runs clients closed-loop client goroutines until the deadline
// (and until at least minQueries queries have been issued), each taking the
// next query index from one shared counter. Traced runs ask for the span
// tree on every other mix cycle (generator.traced).
func closedLoop(ctx context.Context, c *client, gen *generator, clients int, deadline time.Time, minQueries int, traced bool) ([]*querySample, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []*querySample
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minQueries && !time.Now().Before(deadline) {
					return
				}
				q := gen.query(i)
				resp, rtt, err := c.query(ctx, q.sql, traced && gen.traced(i))
				mu.Lock()
				out = append(out, &querySample{i: i, q: q, rtt: rtt, resp: resp, err: err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// verifyIngest checks that after the WAL drained every replica applied its
// whole log and the table holds exactly the base rows plus every acked load.
func verifyIngest(ctx context.Context, c *client, f *fleet, res *result, rowsBase, baseSum float64, runs ...*ingestRun) error {
	if err := f.checkConverged(); err != nil {
		res.fail("%v", err)
	}
	wantRows, wantSum := rowsBase, baseSum
	var failedRows float64
	for _, r := range runs {
		wantRows += float64(r.ackedRows)
		wantSum += r.ackedSum
		failedRows += float64(r.failedRows)
	}
	resp, _, err := c.query(ctx, "SELECT count(*), sum(powerConsumed) FROM meterdata", false)
	if err != nil {
		return fmt.Errorf("post-ingest count: %w", err)
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 2 {
		res.fail("post-ingest count returned %v", resp.Rows)
		return nil
	}
	gotRows, _ := resp.Rows[0][0].(float64)
	gotSum, _ := resp.Rows[0][1].(float64)
	// A failed load may have committed on some shards; only then may the
	// table hold more than the acked rows.
	if gotRows < wantRows || gotRows > wantRows+failedRows {
		res.fail("count(*) after ingest = %.0f, want %.0f (+ up to %.0f from failed loads)", gotRows, wantRows, failedRows)
	}
	if failedRows == 0 && !sameCell(gotSum, wantSum) {
		res.fail("sum(powerConsumed) after ingest = %v, want %v", gotSum, wantSum)
	}
	return nil
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	fh, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision run.sh passes in (unknown outside git).
func commit() string {
	if c := os.Getenv("E2EBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status has no VmHWM")
}

// stealTicks reads the VM's cumulative steal time and its total CPU time,
// in clock ticks, from the "cpu" line of /proc/stat (user nice system idle
// iowait irq softirq steal; guest time is already counted in user). Their
// deltas over a run show how much CPU the hypervisor took from the VM.
func stealTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for _, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
	}
	steal, _ = strconv.ParseInt(fields[8], 10, 64)
	return steal, total
}

func fmtList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

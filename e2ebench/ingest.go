package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/wal"
	"github.com/smartgrid-oss/dgfindex/internal/workload"
)

// Stream shape: one meter collection interval per tick, every tick a new
// timestamp past the base month, 1000 readings from distinct users (so every
// shard receives a slice).
const (
	rowsPerLoad  = 1000
	tickInterval = 15 * 60 // seconds between collection intervals
)

// ticks generates the stream's loads from the run seed. Tick k only depends
// on (seed, k).
type ticks struct {
	cfg  workload.MeterConfig
	seed int64
}

// rows returns tick k's JSON rows and the sum of their powerConsumed.
func (t ticks) rows(k int) ([][]any, float64) {
	rng := rand.New(rand.NewSource(t.seed*7_777_777 + int64(k)*104729 + 3))
	ts := t.cfg.Start.Unix() + int64(t.cfg.Days)*day + int64(k)*tickInterval
	users := rng.Perm(t.cfg.Users)[:rowsPerLoad]
	out := make([][]any, len(users))
	var sum float64
	for i, u := range users {
		user := int64(u + 1)
		power := float64(rng.Intn(100000)) / 100
		sum += power
		row := []any{user, t.cfg.RegionOf(user), ts, power}
		for m := 0; m < t.cfg.OtherMetrics; m++ {
			row = append(row, float64(rng.Intn(10000))/100)
		}
		out[i] = row
	}
	return out, sum
}

// loadSample is one load's timeline. Every latency is measured from due,
// the time the open-loop schedule wanted the load sent.
type loadSample struct {
	due, sent, acked, visible time.Time
	target                    []uint64 // per shard: the LSN every live replica must apply
	routeMs, appendMs         float64  // decorator-timed (traced runs only)
}

// ingestRun is the outcome of one open-loop loader run.
type ingestRun struct {
	samples                 []*loadSample
	attempted, failed       int
	ackedRows, failedRows   int64
	ackedSum                float64
	firstDue, drained       time.Time
	pendingRowsMax          int
	applyBatches, rowsApply int64 // deltas over the run, all replicas
	err                     error // first failure, for the log
}

// runLoads drives POST /load. With a period it runs open-loop: load k is
// due at start+k·period and is sent then (or as soon as the previous ack
// returns, when the server falls behind). With period 0 it runs closed-loop:
// each load is due when the previous one became visible. It stops at n loads or at the first due time not before
// deadline, then drains the WAL. While waiting for the next due time it
// polls the router's WAL positions to time when each load became visible
// on every live replica, so the generator stays a single goroutine.
func runLoads(ctx context.Context, c *client, f *fleet, tk ticks, first, n int, period time.Duration, deadline time.Time) (*ingestRun, error) {
	out := &ingestRun{}
	batches0, applied0 := f.walApplied()
	var waiting []*loadSample
	poll := func() {
		st := f.router.WALStats()
		now := time.Now()
		for _, ss := range st {
			for _, rs := range ss.Replicas {
				out.pendingRowsMax = max(out.pendingRowsMax, rs.PendingRows)
			}
		}
		keep := waiting[:0]
		for _, s := range waiting {
			if visibleOnAll(st, s.target) {
				s.visible = now
			} else {
				keep = append(keep, s)
			}
		}
		waiting = keep
	}
	var start time.Time
	for k := 0; k < n; k++ {
		rows, sum := tk.rows(first + k)
		body, err := loadBody("meterdata", rows)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			start = time.Now()
			out.firstDue = start
		}
		due := start.Add(time.Duration(k) * period)
		if period == 0 {
			// Closed loop: the next load is due once the previous one is
			// visible everywhere.
			for poll(); len(waiting) > 0; poll() {
				time.Sleep(time.Millisecond)
			}
			due = time.Now()
		}
		if !due.Before(deadline) {
			break
		}
		for now := time.Now(); now.Before(due); now = time.Now() {
			poll()
			time.Sleep(min(2*time.Millisecond, due.Sub(now)))
		}
		s := &loadSample{due: due, sent: time.Now()}
		out.attempted++
		_, err = c.load(ctx, body, len(rows))
		s.acked = time.Now()
		if err != nil {
			out.failed++
			out.failedRows += int64(len(rows))
			if out.err == nil {
				out.err = err
			}
			continue
		}
		out.ackedRows += int64(len(rows))
		out.ackedSum += sum
		// The loader is the only writer, so right after the ack each
		// shard's newest LSN is this load's slice on that shard.
		for _, ss := range f.router.WALStats() {
			s.target = append(s.target, ss.NextLSN-1)
		}
		if f.tb != nil {
			s.routeMs, s.appendMs = f.tb.lastLoad()
		}
		out.samples = append(out.samples, s)
		waiting = append(waiting, s)
		poll()
	}
	if err := f.router.DrainWAL(ctx); err != nil {
		return nil, fmt.Errorf("drain WAL: %w", err)
	}
	out.drained = time.Now()
	poll()
	if len(waiting) > 0 {
		return nil, fmt.Errorf("%d acked loads not visible on every live replica after the WAL drained", len(waiting))
	}
	batches1, applied1 := f.walApplied()
	out.applyBatches, out.rowsApply = batches1-batches0, applied1-applied0
	return out, nil
}

// visibleOnAll reports whether every live replica of each shard has applied
// the shard's target LSN.
func visibleOnAll(st []wal.ShardStats, target []uint64) bool {
	for si, ss := range st {
		for _, rs := range ss.Replicas {
			if rs.Active && rs.AppliedLSN < target[si] {
				return false
			}
		}
	}
	return true
}

// walApplied sums the apply batches every replica has run and the rows the
// server counted as applied.
func (f *fleet) walApplied() (batches, rows int64) {
	for _, ss := range f.router.WALStats() {
		for _, rs := range ss.Replicas {
			batches += rs.AppliedBatches
		}
	}
	return batches, f.srv.Stats().RowsApplied
}

// checkConverged verifies that every replica applied its whole log.
func (f *fleet) checkConverged() error {
	for _, ss := range f.router.WALStats() {
		for _, rs := range ss.Replicas {
			if rs.AppliedLSN != rs.LastLSN {
				return fmt.Errorf("shard %d replica %d: applied LSN %d, last LSN %d", ss.Shard, rs.Replica, rs.AppliedLSN, rs.LastLSN)
			}
		}
	}
	return nil
}

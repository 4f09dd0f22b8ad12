// Scatter streaming: the router's cursor fans a plain-projection SELECT out
// to the target shards' warehouse cursors and forwards rows into one merged
// stream. Each shard's stream is a withFailover callback: while a shard
// still has untried replicas, its rows are held back until its scan
// completes cleanly, so a replica that dies mid-scan can be replayed on a
// sibling replica without duplicating rows already delivered; the shard's
// final replica (always, when Replicas is 1) streams rows the moment they
// arrive. Aggregations cannot stream before the gather (no row exists until
// every shard's partial state merges), so their cursor materializes the
// scatter-gather result and replays it.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartgrid-oss/dgfindex/internal/hive"
	"github.com/smartgrid-oss/dgfindex/internal/storage"
)

// SelectCursor opens a streaming cursor over one SELECT across the fleet,
// consuming the same routeSelect decision execution does: single-shard
// fleets and shard-0-only tables read shard 0 alone (with mid-stream
// failover, and the warehouse's own stats — nothing was scattered);
// partitioned tables scatter. Cancelling ctx (or closing the cursor) aborts
// every shard's scan at its next split boundary.
func (r *Router) SelectCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions) (hive.Cursor, error) {
	targets, passthrough, err := r.routeSelect(s)
	if err != nil {
		return nil, err
	}
	if passthrough {
		return r.newMergeCursor(ctx, s, opts, []int{0}, false)
	}
	if stmtIsAggregate(s) {
		res, err := r.scatter(ctx, s, opts, targets)
		if err != nil {
			return nil, err
		}
		return hive.NewRowsCursor(res), nil
	}
	return r.newMergeCursor(ctx, s, opts, targets, true)
}

// stmtIsAggregate mirrors the compiler's isAgg classification: the statement
// aggregates iff a SELECT item is an aggregate call.
func stmtIsAggregate(s *hive.SelectStmt) bool {
	for _, item := range s.Select {
		if _, ok := item.Expr.(hive.AggCall); ok {
			return true
		}
	}
	return false
}

// scatterCursor merges the target shards' row streams. Rows arrive in shard
// completion order; a LIMIT is enforced globally at delivery and cancels the
// shard scans once satisfied.
type scatterCursor struct {
	cancel context.CancelFunc
	cols   []string

	ch   chan storage.Row
	done chan struct{}

	limit     int
	delivered int
	row       storage.Row

	// stopped marks a deliberate shutdown (LIMIT satisfied or Close): the
	// ctx errors it induces in shard cursors are not failures.
	stopped atomic.Bool

	stats hive.QueryStats
	err   error
}

// newMergeCursor starts one pump per target shard under scatterEach and
// returns once every pump has opened its first warehouse cursor, so a shard
// with no readable replica fails the open rather than the first Next.
// prefix marks a real scatter: the merged stats get the "sharded(k/n)"
// access-path label.
func (r *Router) newMergeCursor(ctx context.Context, s *hive.SelectStmt, opts hive.ExecOptions, targets []int, prefix bool) (hive.Cursor, error) {
	cctx, cancel := context.WithCancel(ctx)
	c := &scatterCursor{
		cancel: cancel,
		// The same slack a warehouse cursor keeps, so shard scans are not
		// paced row by row by the consumer.
		ch:    make(chan storage.Row, 64),
		done:  make(chan struct{}),
		limit: s.Limit,
	}
	var opening sync.WaitGroup // each pump's first open, or its end
	opening.Add(len(targets))
	var openFailed atomic.Bool
	var colsOnce sync.Once
	stats := make([]hive.QueryStats, len(targets))
	pump := func(ctx context.Context, i int) error {
		var once sync.Once
		opened := func(ok bool) {
			once.Do(func() {
				if !ok {
					openFailed.Store(true)
				}
				opening.Done()
			})
		}
		defer opened(false) // no-op once a cursor has opened
		return r.sets[targets[i]].withFailover(ctx, func(kctx context.Context, rep *replica, final bool) error {
			cur, err := rep.w.SelectCursor(kctx, s, opts)
			if err != nil {
				return err
			}
			defer cur.Close()
			colsOnce.Do(func() { c.cols = cur.Columns() })
			opened(true)
			err = drain(ctx, cur, c.ch, final)
			stats[i] = cur.Stats()
			annotateShard(ctx, rep.idx, stats[i])
			return err
		})
	}
	// The pumps are joined structurally, not locally: the goroutine closes
	// c.done once scatterEach has joined them, and Close drains c.ch then
	// blocks on <-c.done.
	//dgflint:ignore goroutinejoin joined by scatterCursor.Close via c.done
	go func() {
		defer close(c.done)
		start := time.Now()
		err := r.scatterEach(cctx, targets, pump)
		// Merge costs the way the gather does: volumes sum, the slowest
		// shard bounds the simulated time, the first target names the
		// access path.
		merged := stats[0]
		for _, st := range stats[1:] {
			mergeStats(&merged, st)
		}
		if prefix {
			merged.AccessPath = fmt.Sprintf("sharded(%d/%d):%s", len(targets), len(r.sets), stats[0].AccessPath)
		}
		merged.Wall = time.Since(start)
		c.stats = merged
		if err != nil && !(isCtxErr(err) && c.stopped.Load()) {
			c.err = err // not our own LIMIT/Close shutdown
		}
		close(c.ch)
	}()
	opening.Wait()
	if openFailed.Load() {
		cancel()
		for range c.ch {
			// Drain rows the opened shards sent before the failure.
		}
		<-c.done
		return nil, c.err
	}
	return c, nil
}

// drain consumes one attempt's cursor into the merged stream, sending under
// the shard's ctx — a replica kill aborts the scan, never a delivery. While
// failover is still possible (final=false) the rows buffer in memory and
// reach the merged stream only after the scan completed cleanly — a replica
// that fails mid-scan then contributes nothing, and its replacement replays
// the shard from scratch without duplicating rows. This is a deliberate
// exactness trade-off the replicated fleet pays even when no replica fails:
// a shard's first rows arrive at shard-completion rather than
// split-completion, and the buffer holds up to that shard's full result
// (the same shard-at-a-time materialization the non-streaming gather does —
// replaying a failed shard by skipping N already-delivered rows instead
// would be unsound, because a warehouse cursor's row order is
// split-completion order, not deterministic). The final attempt streams
// rows directly: no retry can follow, so nothing needs to be replayable —
// and at Replicas:1 every attempt is final.
func drain(ctx context.Context, cur hive.Cursor, ch chan<- storage.Row, final bool) error {
	if final {
		return forwardRows(ctx, cur, ch)
	}
	var buf []storage.Row
	for cur.Next() {
		buf = append(buf, cur.Row())
	}
	if err := cur.Err(); err != nil {
		return err
	}
	for _, row := range buf {
		select {
		case ch <- row:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// forwardRows pumps rows from cur into ch until the cursor ends or ctx is
// cancelled. The cancellation exit still closes the cursor and reads its
// terminal error: a real shard failure racing with the cancel must surface
// as the root cause, not be dropped on the floor or reported as a bare
// cancel (context errors are filtered here like everywhere else — the
// caller's aggregation handles its own cancellation).
func forwardRows(ctx context.Context, cur hive.Cursor, ch chan<- storage.Row) error {
	for cur.Next() {
		select {
		case ch <- cur.Row():
		case <-ctx.Done():
			cur.Close()
			if err := cur.Err(); err != nil && !isCtxErr(err) {
				return err
			}
			return ctx.Err()
		}
	}
	return cur.Err()
}

func (c *scatterCursor) Next() bool {
	if c.limit > 0 && c.delivered >= c.limit {
		if !c.stopped.Swap(true) {
			c.cancel()
		}
		c.row = nil
		return false
	}
	row, ok := <-c.ch
	if !ok {
		c.row = nil
		return false
	}
	c.row = row
	c.delivered++
	return true
}

func (c *scatterCursor) Row() storage.Row { return c.row }

func (c *scatterCursor) Columns() []string { return c.cols }

func (c *scatterCursor) Stats() hive.QueryStats {
	<-c.done
	stats := c.stats
	stats.RowsOut = c.delivered
	return stats
}

func (c *scatterCursor) Err() error {
	<-c.done
	return c.err
}

func (c *scatterCursor) Close() error {
	c.stopped.Store(true)
	c.cancel()
	for range c.ch {
		// Drain so the pumps never block on a send.
	}
	<-c.done
	return nil
}

// Package shard holds serving's compute plane. A Core is the unit: one
// engine over one dynamic graph, the batcher in front of it, and
// the embed / invalidate / snapshot operations serving asks of
// the pair. An unsharded server runs one Core over its graph. A Router
// partitions serving into N independent failure domains, each a Shard
// owning a Core with private memo caches and arena pool; every core
// samples the server's one graph. Compute and memo state are
// partitioned by a consistent hash over node ids; the graph is shared,
// which is what lets any shard compute any target bitwise-identically
// and makes failover sound.
//
// A shard is up or crashed. A Router scatter-gathers embed calls across
// the shards under per-leg deadline budgets: a leg goes to its owner if
// the owner is up, else to the next up shard, and a failed leg fails
// over once to the next up shard; rows no shard could answer degrade
// the response instead of failing it. A shard goes down with its core,
// and the server replaces the whole version, as a params swap does,
// while the router routes around it. See DESIGN.md §13.
package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/stats"
)

// Shard is one failure domain: a core, whose down bit is the shard's,
// and the counters and leg-latency histogram Router.Stats reports. A
// shard's core never changes.
type Shard struct {
	id   int
	core *Core

	lat *stats.Histogram // per-leg latency

	calls    atomic.Int64
	errs     atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64
}

// up reports whether the shard takes calls: its core is not down.
func (s *Shard) up() bool { return !s.core.down.Load() }

// call runs one embed leg on this shard. The returned slab is
// len(nodes)×dim, row i for nodes[i]. The core runs on a goroutine of
// its own while the leg waits for it or for ctx: the batcher runs an
// idle pass inline on its caller, and a leg must end at its deadline
// budget, not when a stalled pass does. That goroutine waits for the
// pass whatever becomes of the leg and counts a panic itself: a pass
// that panics after its leg gave up has still taken the core down.
// The core keeps reading nodes and ts after a leg gives up; a leg's
// slices are its own.
func (s *Shard) call(ctx context.Context, nodes []int32, ts []float64) ([]float32, error) {
	if !s.up() {
		s.errs.Add(1)
		return nil, ErrShardDown
	}
	s.calls.Add(1)
	start := time.Now()
	type result struct {
		slab []float32
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		// Not the leg's ctx: the batcher reads a context only for its
		// Done, and this wait must outlast the leg.
		slab, _, err := s.core.EmbedRows(context.Background(), nodes, ts)
		if errors.Is(err, batcher.ErrPassPanicked) {
			s.panics.Add(1)
		}
		ch <- result{slab, err}
	}()
	var r result
	select {
	case r = <-ch:
	case <-ctx.Done():
		r.err = ctx.Err()
	}
	s.observe(start, r.err)
	return r.slab, r.err
}

// observe counts one finished leg by outcome. A client cancellation
// counts nowhere: it says nothing about the shard; a panic was counted
// by the pass's goroutine in call.
func (s *Shard) observe(start time.Time, err error) {
	s.lat.Observe(time.Since(start))
	switch {
	case err == nil, errors.Is(err, context.Canceled), errors.Is(err, batcher.ErrPassPanicked):
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	default:
		s.errs.Add(1)
	}
}

// Status is one shard's row in Router.Stats.
type Status struct {
	ID       int   `json:"id"`
	Crashed  bool  `json:"crashed"`
	Calls    int64 `json:"calls"`
	Errors   int64 `json:"errors"`
	Timeouts int64 `json:"timeouts"`
	Panics   int64 `json:"panics"`

	// CacheItems and CacheBytes are the shard's engine's resident rows
	// and slab bytes. Router.Stats leaves them zero: serving fills them
	// from the scrape's one read of each engine.
	CacheItems int   `json:"cache_items"`
	CacheBytes int64 `json:"cache_bytes"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

func (s *Shard) status() Status {
	return Status{
		ID:           s.id,
		Crashed:      !s.up(),
		Calls:        s.calls.Load(),
		Errors:       s.errs.Load(),
		Timeouts:     s.timeouts.Load(),
		Panics:       s.panics.Load(),
		LatencyP50Ms: float64(s.lat.Quantile(0.5)) / float64(time.Millisecond),
		LatencyP99Ms: float64(s.lat.Quantile(0.99)) / float64(time.Millisecond),
	}
}

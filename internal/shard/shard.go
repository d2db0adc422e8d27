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
// the response instead of failing it. A supervisor rebuilds a crashed
// shard's core over the live graph and warms it from its last cache
// snapshot while the router routes around it. See DESIGN.md §13.
package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/stats"
)

// ErrShardDown is returned for calls that reach a shard whose core has
// been torn down for restart.
var ErrShardDown = errors.New("shard: shard is down for restart")

// Shard is one failure domain: a core, a crash flag, and the counters
// and leg-latency histogram Router.Stats reports.
type Shard struct {
	id int
	r  *Router

	// coreMu guards the core pointer swap on restart; calls hold RLock
	// only long enough to copy the pointer, never across compute.
	coreMu sync.RWMutex
	core   *Core

	lat *stats.Histogram // per-leg latency

	// crashed marks the shard torn down (panic observed) until the
	// supervisor swaps in a rebuilt core; restarting is the supervisor's
	// single-flight latch.
	crashed    atomic.Bool
	restarting atomic.Bool

	calls    atomic.Int64
	errs     atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64
	restarts atomic.Int64
}

// currentCore returns the shard's core: the one built at construction,
// or the supervisor's latest rebuild.
func (s *Shard) currentCore() *Core {
	s.coreMu.RLock()
	defer s.coreMu.RUnlock()
	return s.core
}

// setCore installs a rebuilt core.
func (s *Shard) setCore(c *Core) {
	s.coreMu.Lock()
	s.core = c
	s.coreMu.Unlock()
}

// up reports whether the shard takes calls: it has not crashed, or the
// supervisor has swapped in its rebuilt core.
func (s *Shard) up() bool { return !s.crashed.Load() }

// call runs one embed leg on this shard. The returned slab is
// len(nodes)×dim, row i for nodes[i]. The core runs on a goroutine of
// its own while the leg waits for it or for ctx: the batcher runs an
// idle pass inline on its caller, and a leg must end at its deadline
// budget, not when a stalled pass does. The core keeps reading nodes
// and ts after a leg gives up; a leg's slices are its own.
func (s *Shard) call(ctx context.Context, nodes []int32, ts []float64) ([]float32, error) {
	c := s.currentCore()
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
		slab, _, err := c.EmbedRows(ctx, nodes, ts)
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

// observe counts one finished leg by outcome and escalates a panic to
// the supervisor. A client cancellation counts nowhere: it says nothing
// about the shard.
func (s *Shard) observe(start time.Time, err error) {
	s.lat.Observe(time.Since(start))
	switch {
	case err == nil, errors.Is(err, context.Canceled):
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
	case errors.Is(err, batcher.ErrPassPanicked):
		s.panics.Add(1)
		s.r.crash(s, err)
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
	Restarts int64 `json:"restarts"`

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
		Restarts:     s.restarts.Load(),
		LatencyP50Ms: float64(s.lat.Quantile(0.5)) / float64(time.Millisecond),
		LatencyP99Ms: float64(s.lat.Quantile(0.99)) / float64(time.Millisecond),
	}
}

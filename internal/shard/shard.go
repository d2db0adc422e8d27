// Package shard holds serving's compute plane. A Core is the unit: one
// engine over one dynamic graph, an optional batcher, and
// the embed / invalidate / swap / snapshot operations serving asks of
// the pair. An unsharded server runs one Core over its graph. A Router
// partitions serving into N independent failure domains, each a Shard
// owning a Core with private memo caches and arena pool; every core
// samples the server's one graph. Compute and memo state are
// partitioned by a consistent hash over node ids; the graph is shared,
// which is what lets any shard compute any target bitwise-identically
// and makes fallback and hedged reads sound.
//
// A Router scatter-gathers embed calls across the shards under a
// robustness envelope: per-shard deadline budgets, a rolling-error-rate
// circuit breaker per shard, optional hedged reads after a p99-derived
// delay, and degraded partial responses when a shard cannot answer. A
// supervisor rebuilds a crashed shard's core over the live graph and
// warms it from its last cache snapshot while the breaker routes
// traffic around it. See DESIGN.md §13.
package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/stats"
)

// ErrShardDown is returned for calls that reach a shard whose core has
// been torn down for restart.
var ErrShardDown = errors.New("shard: shard is down for restart")

// Shard is one failure domain: a core plus the health machinery the
// router consults (breaker, latency histogram, crash flags).
type Shard struct {
	id int
	r  *Router

	// coreMu guards the core pointer swap on restart; calls hold RLock
	// only long enough to copy the pointer, never across compute.
	coreMu sync.RWMutex
	core   *Core

	breaker *Breaker
	lat     *stats.Histogram // per-leg latency, feeds the hedge delay

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

// Admit reports whether the shard may take a call right now (not
// crashed, breaker allows). A true return consumes a half-open probe
// token when applicable, so the caller must follow with exactly one
// call (whose outcome is recorded by call itself).
func (s *Shard) Admit() bool {
	if s.crashed.Load() {
		return false
	}
	return s.breaker.Allow()
}

// call runs one embed leg on this shard and feeds the outcome to the
// breaker. The returned slab is len(nodes)×dim, row i for nodes[i].
func (s *Shard) call(ctx context.Context, nodes []int32, ts []float64) ([]float32, error) {
	c := s.currentCore()
	if s.crashed.Load() {
		err := ErrShardDown
		s.errs.Add(1)
		s.breaker.Record(OutcomeFailure)
		return nil, err
	}
	s.calls.Add(1)
	start := time.Now()
	slab, _, err := c.EmbedRows(ctx, nodes, ts)
	s.observe(start, err)
	return slab, err
}

// observe classifies one finished leg for the breaker and counters, and
// escalates panics to the supervisor.
func (s *Shard) observe(start time.Time, err error) {
	s.lat.Observe(time.Since(start))
	switch {
	case err == nil:
		s.breaker.Record(OutcomeSuccess)
	case errors.Is(err, context.Canceled):
		// The client went away; that says nothing about shard health.
		s.breaker.Record(OutcomeNeutral)
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		s.breaker.Record(OutcomeFailure)
	case isPanic(err):
		s.panics.Add(1)
		s.breaker.Record(OutcomeFailure)
		s.r.crash(s, err)
	default:
		s.errs.Add(1)
		s.breaker.Record(OutcomeFailure)
	}
}

// Healthy reports whether the router should count this shard toward
// quorum: not crashed, and its breaker either admitting traffic or
// ready to start half-open probes (see Breaker.Eligible for why a
// State-based check would deadlock a fully-open pool).
func (s *Shard) Healthy() bool {
	return !s.crashed.Load() && s.breaker.Eligible()
}

// Status is one shard's row in Router.Stats.
type Status struct {
	ID       int    `json:"id"`
	Breaker  string `json:"breaker"`
	Crashed  bool   `json:"crashed"`
	Calls    int64  `json:"calls"`
	Errors   int64  `json:"errors"`
	Timeouts int64  `json:"timeouts"`
	Panics   int64  `json:"panics"`
	Restarts int64  `json:"restarts"`

	BreakerOpens     int64 `json:"breaker_opens"`
	BreakerHalfOpens int64 `json:"breaker_half_opens"`
	BreakerCloses    int64 `json:"breaker_closes"`

	CacheItems int   `json:"cache_items"`
	CacheBytes int64 `json:"cache_bytes"`

	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
}

func (s *Shard) status() Status {
	opens, halfOpens, closes := s.breaker.Transitions()
	st := Status{
		ID:               s.id,
		Breaker:          s.breaker.State().String(),
		Crashed:          s.crashed.Load(),
		Calls:            s.calls.Load(),
		Errors:           s.errs.Load(),
		Timeouts:         s.timeouts.Load(),
		Panics:           s.panics.Load(),
		Restarts:         s.restarts.Load(),
		BreakerOpens:     opens,
		BreakerHalfOpens: halfOpens,
		BreakerCloses:    closes,
		LatencyP50Ms:     float64(s.lat.Quantile(0.5)) / float64(time.Millisecond),
		LatencyP99Ms:     float64(s.lat.Quantile(0.99)) / float64(time.Millisecond),
	}
	c := s.currentCore()
	st.CacheItems = c.eng.CacheLen()
	st.CacheBytes = c.eng.CacheBytes()
	return st
}

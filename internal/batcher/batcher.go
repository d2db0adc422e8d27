// Package batcher coalesces concurrent embedding requests into fused
// engine passes — the cross-request analogue of the paper's
// within-batch deduplication. TGOpt's redundancy (§3.1) spans targets,
// not requests: under concurrent serving load, overlapping ⟨node, t⟩
// targets arrive on different HTTP requests, where per-request engine
// passes recompute them independently and tiny requests can never
// amortize the blocked-matmul and batched-attention kernels.
//
// The batcher restores that lost redundancy with two mechanisms:
//
//   - Dynamic micro-batching: enqueued targets accumulate into one
//     pending batch that is flushed as a single Engine.EmbedWith pass
//     when it reaches Config.MaxBatch targets, when Config.Window has
//     elapsed since the batch opened, or immediately when no pass is
//     currently executing (the idle fast path — an unloaded server adds
//     no batching latency, so p99 at concurrency 1 matches the direct
//     path). Idle-path passes run inline on the caller's goroutine;
//     every other flush schedules a runner that yields to the scheduler
//     once before capturing the batch, so concurrent callers that are
//     already runnable join the same cohort (without this, batches
//     degenerate to single requests on a saturated machine). Result
//     rows are scattered back to the per-request waiters.
//
//   - Single-flight deduplication: every target is keyed by the
//     engine's memo key (core.Key, collision-free per §4.1). A target
//     whose key already has a computation in flight — pending in the
//     current batch or executing in a previous one — attaches to that
//     flight instead of enqueuing a duplicate slot, so N concurrent
//     cache misses for one ⟨node, t⟩ compute exactly once and N−1
//     requests block on the first computation's result. This is sound
//     for the same reason the memo cache is: a target's embedding is
//     immutable under chronological appends (§3.2).
//
// Waiting is per-request-context: a caller whose context is cancelled
// mid-batch stops waiting immediately, while its flights complete
// normally for any other waiters (and warm the engine cache). A panic
// inside the fused pass is recovered and published as an error to every
// waiter of that batch, so no waiter can be left stuck.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
)

// Embedder is the fused-pass computation the batcher drives —
// *core.Engine in production, the shard router's per-shard engines in
// sharded serving, a controllable fake in tests. It is the promoted
// core.Embedder seam (PR 7); the alias remains so existing callers
// read naturally.
type Embedder = core.Embedder

// ErrPassPanicked wraps the error published to every waiter of a
// fused pass that panicked. Callers that supervise an embedder —
// the shard router's panic domain — unwrap it with errors.Is to tell
// a crashed engine from an ordinary failure.
var ErrPassPanicked = errors.New("batcher: fused pass panicked")

// Config bounds a batcher's coalescing behavior. The zero value is
// usable: Window 0 disables the timer (flushes still happen on the size
// trigger, the idle fast path, and pass-completion drain), MaxBatch 0
// falls back to DefaultMaxBatch.
type Config struct {
	// Window is the maximum time a pending batch may wait for more
	// targets before flushing. It only matters while another pass is
	// executing; an idle batcher flushes immediately.
	Window time.Duration
	// MaxBatch flushes the pending batch as soon as it holds this many
	// unique targets. A single request with more targets than MaxBatch
	// still runs as one fused pass (the cap is a flush trigger, not a
	// split point — the engine handles arbitrary batch sizes).
	MaxBatch int
}

// DefaultMaxBatch is the size trigger used when Config.MaxBatch <= 0.
const DefaultMaxBatch = 256

// DefaultWindow is the flush window used by the serving CLI default.
const DefaultWindow = 2 * time.Millisecond

// flight is one in-flight ⟨node, t⟩ computation. done is its cohort's
// channel — shared by every flight of one pending batch — and is closed
// exactly once, after every flight's row/err is set; waiters must only
// read them after done.
type flight struct {
	node int32
	t    float64
	enq  time.Time // enqueue instant, for the queue-wait histogram
	done chan struct{}
	row  []float32 // d-wide result row (sub-slice of the batch slab)
	err  error
}

// Batcher coalesces Embed calls into fused Embedder passes. Safe for
// concurrent use; create with New.
type Batcher struct {
	eng Embedder
	dim int
	cfg Config

	mu         sync.Mutex
	pending    []*flight          // the batch currently accumulating
	cohort     chan struct{}      // pending's done channel; nil while pending is empty
	flights    map[uint64]*flight // memo key -> pending or executing flight
	running    int                // fused passes currently executing
	batchGen   uint64             // invalidates stale window timers
	timerArmed bool               // a window timer covers the open batch

	// maxFlightT holds the float bits of an upper bound on the query
	// times of in-flight computations. It is raised (under mu) whenever
	// a flight is added and reset to -Inf when the table empties, so
	// RetireTargets can skip the locked scan on the common chronological
	// append with no future-time work in flight. It may run stale-high
	// while flights drain (a wasted scan, never a missed retirement).
	maxFlightT atomic.Uint64

	// Counters (atomic so Stats never contends with the hot path).
	enqueued    atomic.Int64 // targets enqueued, pre-coalesce
	coalesced   atomic.Int64 // targets that attached to an existing flight
	batches     atomic.Int64 // fused passes completed
	flushSize   atomic.Int64 // flushes triggered by MaxBatch
	flushWindow atomic.Int64 // flushes triggered by the window timer
	flushIdle   atomic.Int64 // flushes by the idle fast path
	flushDrain  atomic.Int64 // flushes draining the queue after a pass
	panics      atomic.Int64 // recovered fused-pass panics
	retireCalls atomic.Int64 // RetireTargets invocations
	retired     atomic.Int64 // flights retired by RetireTargets

	queueWait *stats.Histogram      // enqueue -> flush start
	occupancy *stats.CountHistogram // unique targets per fused pass
}

// New builds a batcher over an embedder producing dim-wide rows
// (model.Cfg.NodeDim for a TGOpt engine).
func New(eng Embedder, dim int, cfg Config) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	b := &Batcher{
		eng:       eng,
		dim:       dim,
		cfg:       cfg,
		flights:   make(map[uint64]*flight),
		queueWait: stats.NewHistogram(),
		occupancy: stats.NewCountHistogram(),
	}
	b.maxFlightT.Store(math.Float64bits(math.Inf(-1)))
	return b
}

// Dim returns the embedding width of the batcher's rows.
func (b *Batcher) Dim() int { return b.dim }

// Config returns the (defaulted) configuration.
func (b *Batcher) Config() Config { return b.cfg }

// Embed computes the embeddings of the given targets through the fused
// serving path, blocking until every target's flight completes or ctx
// is cancelled. The result is one backing slab with target i's row at
// slab[i*Dim() : (i+1)*Dim()] — callers sub-slice it instead of
// allocating per-row. Rows are bitwise identical to a direct
// Engine.EmbedWith pass over the same targets.
//
// On cancellation the error is ctx.Err(); the targets this call
// enqueued still complete (other requests may share them), they are
// simply no longer waited for.
func (b *Batcher) Embed(ctx context.Context, nodes []int32, ts []float64) ([]float32, error) {
	if len(nodes) != len(ts) {
		panic("batcher: Embed nodes/ts length mismatch")
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	n := len(nodes)
	waits := make([]*flight, n)

	now := time.Now()
	b.mu.Lock()
	for i := range nodes {
		key := core.Key(nodes[i], ts[i])
		if f, ok := b.flights[key]; ok {
			// Single-flight hit: a computation for this exact target is
			// already pending or executing (or just finished — done
			// flights are equally valid, their rows are immutable).
			b.coalesced.Add(1)
			waits[i] = f
			continue
		}
		if b.cohort == nil {
			b.cohort = make(chan struct{})
		}
		f := &flight{node: nodes[i], t: ts[i], enq: now, done: b.cohort}
		b.flights[key] = f
		b.pending = append(b.pending, f)
		waits[i] = f
		if ts[i] > math.Float64frombits(b.maxFlightT.Load()) {
			b.maxFlightT.Store(math.Float64bits(ts[i]))
		}
	}
	b.enqueued.Add(int64(n))

	inline := false
	switch {
	case len(b.pending) == 0:
		// Everything coalesced onto existing flights.
	case len(b.pending) >= b.cfg.MaxBatch:
		b.flushSize.Add(1)
		b.scheduleLocked()
	case b.running == 0:
		// Idle fast path: nothing is computing, so waiting could only
		// add latency — run the pass inline on this goroutine, like the
		// direct path (no spawn, no handoff: an unloaded server pays
		// one Gosched for batching). Under load (running > 0) the batch
		// keeps accumulating until size, window, or drain.
		b.flushIdle.Add(1)
		b.running++
		inline = true
	default:
		b.armTimerLocked()
	}
	b.mu.Unlock()

	if inline {
		// Cohort formation, same as runLoop: yield once before capturing
		// the batch so concurrent callers that are already runnable get
		// to enqueue into this pass (running is already 1, so they
		// queue instead of going inline themselves). An unloaded
		// batcher has nothing else runnable and proceeds immediately.
		runtime.Gosched()
		b.mu.Lock()
		fs, done := b.takeLocked()
		b.mu.Unlock()
		if len(fs) > 0 { // a size flush may have raced the capture
			b.runPass(fs, done)
		}
		b.mu.Lock()
		b.running--
		if len(b.pending) > 0 {
			// Work queued up behind the inline pass: hand it to a
			// detached runner rather than serving it on this caller's
			// time (and rather than letting it wait out the window).
			b.flushDrain.Add(1)
			b.scheduleLocked()
		}
		b.mu.Unlock()
	}

	slab := make([]float32, n*b.dim)
	for i, f := range waits {
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		copy(slab[i*b.dim:(i+1)*b.dim], f.row)
	}
	return slab, nil
}

// scheduleLocked accounts a new runner as executing and spawns it.
// Callers hold b.mu. The batch is NOT captured here: the runner yields
// once before taking the queue (cohort formation — see runLoop), so
// callers that are already runnable get to enqueue into the same pass.
func (b *Batcher) scheduleLocked() {
	b.running++
	go b.runLoop()
}

// takeLocked claims the pending batch and its cohort channel for
// execution. Callers hold b.mu.
func (b *Batcher) takeLocked() ([]*flight, chan struct{}) {
	run, done := b.pending, b.cohort
	b.pending, b.cohort = nil, nil
	b.batchGen++ // any armed window timer is now stale
	b.timerArmed = false
	return run, done
}

// runLoop is one runner: it captures and executes fused passes until the
// queue is empty, then exits. Deferred capture is what makes batches
// actually form under load: a flush trigger schedules the runner, the
// runner yields once, and every caller the scheduler had runnable gets
// to enqueue before the batch is taken. Without the yield, Go's
// spawned-goroutine-runs-next scheduling lets a fresh pass execute
// before sibling requests ever reach the queue — on a saturated box
// every batch would hold a single request's targets. After each pass
// the loop drains whatever accumulated during it (the drain trigger),
// so queued targets never wait out the window behind a long pass.
func (b *Batcher) runLoop() {
	first := true
	for {
		runtime.Gosched() // let runnable callers join this cohort
		b.mu.Lock()
		fs, done := b.takeLocked()
		if len(fs) == 0 {
			b.running--
			b.mu.Unlock()
			return
		}
		if !first {
			b.flushDrain.Add(1)
		}
		first = false
		b.mu.Unlock()
		b.runPass(fs, done)
	}
}

// armTimerLocked schedules a window flush for the current pending batch
// if one is not already armed. The generation check makes a fired timer
// a no-op when its batch was already flushed by another trigger.
func (b *Batcher) armTimerLocked() {
	if b.cfg.Window <= 0 {
		return // no timer: size, idle, and drain triggers still flush
	}
	if b.timerArmed {
		return
	}
	b.timerArmed = true
	gen := b.batchGen
	time.AfterFunc(b.cfg.Window, func() {
		b.mu.Lock()
		if b.batchGen != gen || len(b.pending) == 0 {
			b.mu.Unlock()
			return
		}
		b.timerArmed = false
		b.flushWindow.Add(1)
		b.scheduleLocked()
		b.mu.Unlock()
	})
}

// runPass executes one fused pass over the claimed flights and
// publishes each result row (or a recovered panic as an error) to its
// waiters by closing the cohort's done channel, once, on either path.
func (b *Batcher) runPass(fs []*flight, done chan struct{}) {
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			b.panics.Add(1)
			err := fmt.Errorf("%w: %v", ErrPassPanicked, rec)
			for _, f := range fs {
				f.err = err
			}
		}
		close(done)

		b.mu.Lock()
		// Retire the flights so later requests for the same keys start
		// fresh computations (which then hit the engine's memo cache).
		// A retired flight that raced with a just-attached waiter is
		// fine: its done/row/err are already published and immutable.
		// The identity check matters: RetireTargets may have already
		// removed a flight and a successor for the same key may be in
		// the table — deleting blindly would orphan the successor into
		// permanent single-flight misses.
		for _, f := range fs {
			key := core.Key(f.node, f.t)
			if b.flights[key] == f {
				delete(b.flights, key)
			}
		}
		b.resetFlightBoundLocked()
		b.mu.Unlock()
	}()

	nm := len(fs)
	for _, f := range fs {
		b.queueWait.Observe(start.Sub(f.enq))
	}

	ar := tensor.GetArena()
	nodes := ar.Int32s(nm)
	ts := ar.Float64s(nm)
	for i, f := range fs {
		nodes[i] = f.node
		ts[i] = f.t
	}
	h := b.eng.EmbedWith(ar, nodes, ts)
	// One slab for the whole batch; each flight's row sub-slices it.
	// Copied out because the arena goes back to the pool.
	slab := make([]float32, nm*b.dim)
	copy(slab, h.Data()[:nm*b.dim])
	tensor.PutArena(ar)

	for i, f := range fs {
		f.row = slab[i*b.dim : (i+1)*b.dim]
	}
	b.batches.Add(1)
	b.occupancy.Observe(int64(nm))
}

// RetireTargets removes from the single-flight table every in-flight
// computation targeting one of the given nodes at a query time
// strictly after t, returning how many were retired. It closes the
// read-your-writes gap of single-flight dedup under history edits: a
// flight computed against the pre-insert history stays valid for the
// waiters that attached before the insert was acknowledged, but a
// request arriving after the acknowledgement must not attach to it —
// retiring the key forces a fresh computation against the updated
// history. The engine's invalidation hook calls this before its cache
// scan (see core.Engine.SetInvalidationHook); retired flights still
// complete and publish to their existing waiters.
//
// The common case — a chronological append with no future-time work in
// flight — exits on one atomic load without taking the batcher lock,
// so the per-append hook does not contend with the serving hot path.
func (b *Batcher) RetireTargets(nodes []int32, t float64) int {
	b.retireCalls.Add(1)
	if math.Float64frombits(b.maxFlightT.Load()) <= t {
		// No in-flight computation targets a time after t. The bound is
		// only ever raised while such a flight is in the table, so a
		// flight that must be retired can never hide behind this exit.
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	retired := 0
	for key, f := range b.flights {
		if f.t <= t {
			continue
		}
		for _, n := range nodes {
			if f.node == n {
				delete(b.flights, key)
				retired++
				break
			}
		}
	}
	b.resetFlightBoundLocked()
	if retired > 0 {
		b.retired.Add(int64(retired))
	}
	return retired
}

// resetFlightBoundLocked drops the in-flight time bound back to -Inf
// once the single-flight table is empty (callers hold b.mu, so no
// flight can be added concurrently). While the table is non-empty the
// bound is left alone — possibly stale-high, which only costs a scan.
func (b *Batcher) resetFlightBoundLocked() {
	if len(b.flights) == 0 {
		b.maxFlightT.Store(math.Float64bits(math.Inf(-1)))
	}
}

// InFlight reports the live queue state: targets pending in the open
// batch and fused passes currently executing.
func (b *Batcher) InFlight() (pending, running int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending), b.running
}

// Snapshot is a point-in-time copy of the batcher's counters.
type Snapshot struct {
	Enqueued    int64 // targets enqueued, pre-coalesce
	Coalesced   int64 // targets deduplicated onto an existing flight
	Batches     int64 // fused passes completed
	FlushSize   int64 // flushes triggered by MaxBatch
	FlushWindow int64 // flushes triggered by the window timer
	FlushIdle   int64 // flushes by the idle fast path
	FlushDrain  int64 // flushes draining the queue after a pass
	Panics      int64 // recovered fused-pass panics
	RetireCalls int64 // RetireTargets invocations (invalidation hook fires)
	Retired     int64 // in-flight computations retired by history edits
}

// CoalesceRatio is the fraction of enqueued targets that were served by
// an existing flight instead of a new computation slot.
func (s Snapshot) CoalesceRatio() float64 {
	if s.Enqueued == 0 {
		return 0
	}
	return float64(s.Coalesced) / float64(s.Enqueued)
}

// Add accumulates another batcher's counters: a server with a batcher
// per core reports their sum.
func (s *Snapshot) Add(o Snapshot) {
	s.Enqueued += o.Enqueued
	s.Coalesced += o.Coalesced
	s.Batches += o.Batches
	s.FlushSize += o.FlushSize
	s.FlushWindow += o.FlushWindow
	s.FlushIdle += o.FlushIdle
	s.FlushDrain += o.FlushDrain
	s.Panics += o.Panics
	s.RetireCalls += o.RetireCalls
	s.Retired += o.Retired
}

// Stats returns the batcher's counters.
func (b *Batcher) Stats() Snapshot {
	return Snapshot{
		Enqueued:    b.enqueued.Load(),
		Coalesced:   b.coalesced.Load(),
		Batches:     b.batches.Load(),
		FlushSize:   b.flushSize.Load(),
		FlushWindow: b.flushWindow.Load(),
		FlushIdle:   b.flushIdle.Load(),
		FlushDrain:  b.flushDrain.Load(),
		Panics:      b.panics.Load(),
		RetireCalls: b.retireCalls.Load(),
		Retired:     b.retired.Load(),
	}
}

// QueueWait returns the live enqueue-to-flush latency histogram.
func (b *Batcher) QueueWait() *stats.Histogram { return b.queueWait }

// Occupancy returns the live unique-targets-per-pass histogram.
func (b *Batcher) Occupancy() *stats.CountHistogram { return b.occupancy }

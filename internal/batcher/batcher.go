// Package batcher fuses concurrent embedding requests into shared engine
// passes. Under concurrent serving load, small requests arrive on
// different HTTP connections; run one by one, each pays its own engine
// pass and none is large enough to amortize the blocked-matmul and
// batched-attention kernels.
//
// Requests accumulate into one pending cohort — the plain concatenation
// of their targets — which is flushed as a single Engine.EmbedWith pass
// when it reaches Config.MaxBatch targets, when Config.Window has
// elapsed since the cohort opened, when the pass ahead of it completes
// (drain), or immediately while a core is free: fewer passes execute
// than GOMAXPROCS at construction (the idle fast path — a request never
// waits behind a pass while a core could run its own, so an unloaded
// server adds no batching latency and two connections on two cores run
// two passes). Coalescing therefore starts only once every core runs a
// pass. Idle-path passes take their cohort at once and run it inline
// on the caller's goroutine after one yield; every other flush
// schedules a runner that yields to the scheduler once before
// capturing the cohort, so concurrent callers that are already runnable
// join it (without this, cohorts degenerate to single requests on a
// saturated machine). Each caller takes its row range out of the
// pass's result slab.
//
// The batcher does no deduplication of its own: a ⟨node, t⟩ repeated
// across the cohort's requests reaches the engine as repeated targets,
// and the engine's §4.1 dedup filter computes it once. Every kernel is
// row-independent, so a row is bitwise the same whatever cohort it
// rode in. A request never joins a pass that is already running: its
// targets are computed by a pass captured after it enqueued, so any
// write acknowledged before the request is visible to that pass
// (read-your-writes, with no hook from the engine's invalidation).
//
// Waiting is per-request-context: a caller whose context is cancelled
// stops waiting immediately, while its cohort's pass completes normally
// for the other callers (and warms the engine cache). A panic inside the
// fused pass is recovered and published as an error to every caller of
// that cohort, so none can be left stuck.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
)

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
	// targets before flushing. It only matters while every core already
	// runs a pass; while a core is free a request flushes immediately.
	Window time.Duration
	// MaxBatch flushes the pending batch as soon as it holds this many
	// targets. A single request with more targets than MaxBatch still
	// runs as one fused pass (the cap is a flush trigger, not a split
	// point — the engine handles arbitrary batch sizes).
	MaxBatch int
}

// DefaultMaxBatch is the size trigger used when Config.MaxBatch <= 0.
const DefaultMaxBatch = 256

// DefaultWindow is the flush window used by the serving CLI default.
const DefaultWindow = 2 * time.Millisecond

// cohort is one pending batch: the targets of every request that
// enqueued before a flush captured it, in arrival order, and each
// request's enqueue instant. The opening request's slices are used in
// place, capped at their length, so the first joiner's append copies
// them rather than writing into the caller's array. done is closed
// exactly once, after slab or err is set; callers read them only after
// done.
type cohort struct {
	nodes  []int32
	ts     []float64
	opened time.Time   // the opening request's enqueue instant
	enq    []time.Time // one per joiner, for the queue-wait histogram
	done   chan struct{}
	slab   []float32 // row i of the pass at [i*dim, (i+1)*dim)
	err    error
}

// Batcher coalesces Embed calls into fused Embedder passes. Safe for
// concurrent use; create with New.
type Batcher struct {
	eng   core.Embedder
	dim   int
	cfg   Config
	slots int // GOMAXPROCS at New: inline passes that run before any request queues

	mu         sync.Mutex
	pending    *cohort // the cohort currently accumulating; nil when empty
	running    int     // fused passes currently executing
	batchGen   uint64  // invalidates stale window timers
	timerArmed bool    // a window timer covers the open cohort

	// Counters (atomic so Stats never contends with the hot path).
	enqueued    atomic.Int64 // targets enqueued
	coalesced   atomic.Int64 // targets that joined a cohort another request opened
	batches     atomic.Int64 // fused passes completed
	flushSize   atomic.Int64 // flushes triggered by MaxBatch
	flushWindow atomic.Int64 // flushes triggered by the window timer
	flushIdle   atomic.Int64 // flushes by the idle fast path
	flushDrain  atomic.Int64 // flushes draining the queue after a pass
	panics      atomic.Int64 // recovered fused-pass panics

	queueWait *stats.Histogram      // enqueue -> flush start, per request
	occupancy *stats.CountHistogram // targets per fused pass
}

// New builds a batcher over an embedder producing dim-wide rows
// (model.Cfg.NodeDim for a TGOpt engine).
func New(eng core.Embedder, dim int, cfg Config) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return &Batcher{
		eng:       eng,
		dim:       dim,
		cfg:       cfg,
		slots:     runtime.GOMAXPROCS(0),
		queueWait: stats.NewHistogram(),
		occupancy: stats.NewCountHistogram(),
	}
}

// Dim returns the embedding width of the batcher's rows.
func (b *Batcher) Dim() int { return b.dim }

// Embed computes the embeddings of the given targets through the fused
// serving path, blocking until their cohort's pass completes or ctx is
// cancelled. The result is one backing slab with target i's row at
// slab[i*Dim() : (i+1)*Dim()] — callers sub-slice it instead of
// allocating per-row. Rows are bitwise identical to a direct
// Engine.EmbedWith pass over the same targets.
//
// On cancellation the error is ctx.Err(); the targets this call
// enqueued are still computed with the rest of the cohort, they are
// simply no longer waited for. Embed may read nodes and ts until that
// cohort's pass ends, also after a cancelled return: the caller must
// not reuse them before then.
func (b *Batcher) Embed(ctx context.Context, nodes []int32, ts []float64) ([]float32, error) {
	if len(nodes) != len(ts) {
		panic("batcher: Embed nodes/ts length mismatch")
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	n := len(nodes)

	now := time.Now()
	b.mu.Lock()
	c := b.pending
	off := 0
	if c == nil {
		c = &cohort{nodes: nodes[:n:n], ts: ts[:n:n], opened: now, done: make(chan struct{})}
		b.pending = c
	} else {
		b.coalesced.Add(int64(n))
		off = len(c.nodes)
		c.nodes = append(c.nodes, nodes...)
		c.ts = append(c.ts, ts...)
		c.enq = append(c.enq, now)
	}
	b.enqueued.Add(int64(n))

	var inline *cohort
	switch {
	case len(c.nodes) >= b.cfg.MaxBatch:
		b.flushSize.Add(1)
		b.scheduleLocked()
	case b.running < b.slots:
		// Idle fast path: a core is free, so waiting could only add
		// latency — run the pass inline on this goroutine (no spawn,
		// no handoff). The cohort is taken under this same lock: a
		// caller that arrives next opens a fresh one, and runs it
		// inline too while another core is free, instead of joining
		// this pass and waiting on it. Once every core runs a pass the
		// cohort keeps accumulating until size, window, or drain.
		b.flushIdle.Add(1)
		b.running++
		inline = b.takeLocked()
	default:
		b.armTimerLocked()
	}
	b.mu.Unlock()

	if inline != nil {
		// Yield once before the pass, as runLoop does before its
		// capture: what is already runnable here (a finished pass's
		// callers writing their replies, the next request's decode)
		// runs first. Nothing can join the cohort meanwhile. Without
		// the yield serve-read's open-loop p90 latency rose 12 % (2 vCPUs).
		runtime.Gosched()
		b.runPass(inline)
		b.mu.Lock()
		b.running--
		if b.pending != nil {
			// Work queued up behind the inline pass: hand it to a
			// detached runner rather than serving it on this caller's
			// time (and rather than letting it wait out the window).
			b.flushDrain.Add(1)
			b.scheduleLocked()
		}
		b.mu.Unlock()
	}

	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c.err != nil {
		return nil, c.err
	}
	if off == 0 && len(c.slab) == n*b.dim {
		return c.slab, nil // the cohort was this request alone
	}
	slab := make([]float32, n*b.dim)
	copy(slab, c.slab[off*b.dim:])
	return slab, nil
}

// scheduleLocked accounts a new runner as executing and spawns it.
// Callers hold b.mu. The cohort is NOT captured here: the runner yields
// once before taking it (cohort formation — see runLoop), so callers
// that are already runnable get to enqueue into the same pass.
func (b *Batcher) scheduleLocked() {
	b.running++
	go b.runLoop()
}

// takeLocked claims the pending cohort (nil if there is none) for
// execution. Callers hold b.mu.
func (b *Batcher) takeLocked() *cohort {
	c := b.pending
	b.pending = nil
	b.batchGen++ // any armed window timer is now stale
	b.timerArmed = false
	return c
}

// runLoop is one runner: it captures and executes fused passes until the
// queue is empty, then exits. Deferred capture is what makes batches
// actually form under load: a flush trigger schedules the runner, the
// runner yields once, and every caller the scheduler had runnable gets
// to enqueue before the cohort is taken. Without the yield, Go's
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
		c := b.takeLocked()
		if c == nil {
			b.running--
			b.mu.Unlock()
			return
		}
		if !first {
			b.flushDrain.Add(1)
		}
		first = false
		b.mu.Unlock()
		b.runPass(c)
	}
}

// armTimerLocked schedules a window flush for the current pending cohort
// if one is not already armed. The generation check makes a fired timer
// a no-op when its cohort was already flushed by another trigger.
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
		if b.batchGen != gen || b.pending == nil {
			b.mu.Unlock()
			return
		}
		b.timerArmed = false
		b.flushWindow.Add(1)
		b.scheduleLocked()
		b.mu.Unlock()
	})
}

// runPass executes one fused pass over the claimed cohort and publishes
// its result slab (or a recovered panic as an error) by closing the
// cohort's done channel, once, on either path.
func (b *Batcher) runPass(c *cohort) {
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			b.panics.Add(1)
			c.err = fmt.Errorf("%w: %v", ErrPassPanicked, rec)
		}
		close(c.done)
	}()

	b.queueWait.Observe(start.Sub(c.opened))
	for _, t := range c.enq {
		b.queueWait.Observe(start.Sub(t))
	}
	nm := len(c.nodes)
	ar := tensor.GetArena()
	h := b.eng.EmbedWith(ar, c.nodes, c.ts)
	// Copied out because the arena goes back to the pool.
	c.slab = make([]float32, nm*b.dim)
	copy(c.slab, h.Data()[:nm*b.dim])
	tensor.PutArena(ar)
	b.batches.Add(1)
	b.occupancy.Observe(int64(nm))
}

// Snapshot is a point-in-time copy of the batcher's counters, named as
// /v1/stats reports them.
type Snapshot struct {
	Enqueued    int64 `json:"enqueued"`     // targets enqueued
	Coalesced   int64 `json:"coalesced"`    // targets that joined a cohort another request opened
	Batches     int64 `json:"batches"`      // fused passes completed
	FlushSize   int64 `json:"flush_size"`   // flushes triggered by MaxBatch
	FlushWindow int64 `json:"flush_window"` // flushes triggered by the window timer
	FlushIdle   int64 `json:"flush_idle"`   // flushes by the idle fast path
	FlushDrain  int64 `json:"flush_drain"`  // flushes draining the queue after a pass
	Panics      int64 `json:"panics"`       // recovered fused-pass panics
}

// CoalesceRatio is the fraction of enqueued targets that rode in a pass
// another request opened.
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
	}
}

// QueueWait returns the live enqueue-to-flush latency histogram, one
// observation per request.
func (b *Batcher) QueueWait() *stats.Histogram { return b.queueWait }

// Occupancy returns the live targets-per-pass histogram.
func (b *Batcher) Occupancy() *stats.CountHistogram { return b.occupancy }

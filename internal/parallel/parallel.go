// Package parallel provides a small work-sharing runtime used by the
// compute-heavy parts of the repository: blocked matrix multiplication,
// temporal neighbor sampling, and the concurrent embedding cache.
//
// It plays the role that OpenMP and Intel TBB play in the original TGOpt
// C++ extension. The primitives are deliberately simple: structured
// fork-join parallel-for helpers that spawn a bounded number of
// goroutines, and a Pool for long-lived background tasks. The fork-join
// helpers also run chunks on the calling goroutine, so nesting them
// never deadlocks; it merely oversubscribes slightly, which the Go
// scheduler absorbs. All helpers fall back to a serial loop when the
// configured parallelism is 1 or the trip count is too small to amortize
// goroutine startup.
//
// # Panic propagation
//
// A panic inside a parallel body or pool task never wedges the caller:
// worker goroutines recover, the remaining workers drain, and the first
// recovered panic is re-raised on the calling goroutine — as a
// *WorkerPanic carrying the original value and worker stack — once every
// sibling has finished (ForChunked/Do) or when Wait/Close is called
// (Pool). Serial fallback paths run the body on the calling goroutine,
// so their panics propagate natively, unwrapped.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MinParallelWork is the smallest trip count for which the parallel-for
// helpers bother to fan out. Below it, scheduling overhead dominates.
const MinParallelWork = 256

var defaultDegree atomic.Int64

func init() { defaultDegree.Store(int64(runtime.GOMAXPROCS(0))) }

// Degree reports the process-wide parallelism degree used by the
// package-level helpers.
func Degree() int { return int(defaultDegree.Load()) }

// SetDegree overrides the process-wide parallelism degree. n <= 0 resets
// it to GOMAXPROCS. It returns the previous degree, so callers can
// restore it (tests use this to force serial or oversubscribed runs).
func SetDegree(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(defaultDegree.Swap(int64(n)))
}

// WorkerPanic wraps a panic recovered from a parallel worker goroutine.
// It is re-raised on the goroutine that called ForChunked/Do (or
// Pool.Wait/Close), where the worker's own stack is already gone; Stack
// preserves it for debugging.
type WorkerPanic struct {
	Value any    // the value passed to panic on the worker
	Stack []byte // the worker's stack at the point of the panic
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", p.Value)
}

// capture runs fn, recording a recovered panic into first (keeping only
// the earliest).
func capture(first *atomic.Pointer[WorkerPanic], fn func()) {
	defer record(first)
	fn()
}

// record must be deferred directly: it recovers the deferring
// function's panic into first, keeping only the earliest. An
// already-wrapped *WorkerPanic (from a nested parallel region
// re-raising) is forwarded without double-wrapping.
func record(first *atomic.Pointer[WorkerPanic]) {
	if r := recover(); r != nil {
		wp, ok := r.(*WorkerPanic)
		if !ok {
			wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
		}
		first.CompareAndSwap(nil, wp)
	}
}

// rethrow re-raises the first captured panic, if any.
func rethrow(first *atomic.Pointer[WorkerPanic]) {
	if wp := first.Load(); wp != nil {
		panic(wp)
	}
}

// For executes body(i) for every i in [0, n), potentially in parallel.
// body must be safe to call concurrently for distinct i. For returns
// after every iteration has completed.
func For(n int, body func(i int)) {
	ForChunked(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// WillFanOut reports whether ForChunked(n, 0, body) will run chunks on
// more than one goroutine. It is the one cut-off every kernel consults:
// the body closure escapes through ForChunked, so callers on a
// zero-allocation path build it only when this is true and call their
// row kernel directly otherwise.
func WillFanOut(n int) bool {
	return n >= MinParallelWork && Degree() > 1
}

// ForChunked splits [0, n) into contiguous chunks and executes
// body(lo, hi) for each chunk, potentially in parallel. chunk <= 0 picks
// a chunk size yielding roughly 2 chunks per worker. The serial fallback
// is a single body(0, n) call.
//
// At most Degree() workers run concurrently regardless of the chunk
// count: workers (the calling goroutine plus up to Degree()-1 spawned
// ones) pull chunks from a shared counter, so a tiny caller-provided
// chunk cannot cause unbounded goroutine growth. Because the calling
// goroutine is itself a worker, nested use is safe. If a body panics,
// the remaining chunks are abandoned, every in-flight sibling finishes,
// and the first panic is re-raised as a *WorkerPanic.
func ForChunked(n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	degree := Degree()
	if degree == 1 || n < MinParallelWork {
		body(0, n)
		return
	}
	if chunk <= 0 {
		chunk = n / (2 * degree)
		if chunk < 1 {
			chunk = 1
		}
	}
	if chunk >= n {
		body(0, n)
		return
	}
	nchunks := (n + chunk - 1) / chunk
	workers := degree - 1 // the calling goroutine is the final worker
	if workers > nchunks-1 {
		workers = nchunks - 1
	}
	fj := forkJoinPool.Get().(*forkJoin)
	fj.n, fj.chunk, fj.nchunks, fj.body = n, chunk, nchunks, body
	fj.next.Store(0)
	fj.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go fj.work()
	}
	fj.run()
	fj.wg.Wait()
	// Every worker has left run: the state can go back to the pool
	// before the panic, if any, unwinds this frame.
	wp := fj.first.Swap(nil)
	fj.body = nil
	forkJoinPool.Put(fj)
	if wp != nil {
		panic(wp)
	}
}

// forkJoin is the shared state of one ForChunked fan-out. It is pooled:
// a fan-out then costs the caller's body closure plus one closure per
// spawned worker, not a counter, a panic slot, a WaitGroup and two
// closures of its own. Nested fan-outs each check out their own.
type forkJoin struct {
	n, chunk, nchunks int
	body              func(lo, hi int)
	next              atomic.Int64
	first             atomic.Pointer[WorkerPanic]
	wg                sync.WaitGroup
}

var forkJoinPool = sync.Pool{New: func() any { return new(forkJoin) }}

// work is a spawned worker's whole life.
func (fj *forkJoin) work() {
	defer fj.wg.Done()
	fj.run()
}

// run pulls chunks off the shared counter until they run out or a
// sibling has panicked, capturing its own panic into fj.first.
func (fj *forkJoin) run() {
	defer record(&fj.first)
	for fj.first.Load() == nil {
		c := int(fj.next.Add(1)) - 1
		if c >= fj.nchunks {
			return
		}
		lo := c * fj.chunk
		hi := lo + fj.chunk
		if hi > fj.n {
			hi = fj.n
		}
		fj.body(lo, hi)
	}
}

// Do runs the given functions, potentially concurrently, and returns when
// all have finished. It is a structured fork-join for heterogeneous
// tasks; the last function runs on the calling goroutine. If any
// function panics, the rest still run to completion and the first panic
// is re-raised as a *WorkerPanic after all have finished.
func Do(fns ...func()) {
	switch len(fns) {
	case 0:
		return
	case 1:
		fns[0]()
		return
	}
	if Degree() == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	var first atomic.Pointer[WorkerPanic]
	for _, fn := range fns[:len(fns)-1] {
		fn := fn
		wg.Add(1)
		go func() {
			defer wg.Done()
			capture(&first, fn)
		}()
	}
	capture(&first, fns[len(fns)-1])
	wg.Wait()
	rethrow(&first)
}

// Pool is a fixed-size set of workers executing closures from a queue.
// It is intended for long-lived background work (for example the
// asynchronous cache-store drain in the device experiments), not for the
// fork-join loops above. The zero value is not usable; construct with
// NewPool.
type Pool struct {
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	closed  atomic.Bool
	first   atomic.Pointer[WorkerPanic]
}

// NewPool creates a pool with n workers. If n <= 0 it uses GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: n,
		tasks:   make(chan func(), 4*n),
	}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	for task := range p.tasks {
		p.runTask(task)
	}
}

// runTask executes one task, releasing the WaitGroup slot even when the
// task panics — a panicking task must never wedge Wait — and records the
// first panic for Wait/Close to re-raise.
func (p *Pool) runTask(task func()) {
	defer p.wg.Done()
	capture(&p.first, task)
}

// Workers reports the number of workers in the pool.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues a task. It panics if the pool has been closed.
func (p *Pool) Submit(task func()) {
	if p.closed.Load() {
		panic("parallel: Submit on closed Pool")
	}
	p.wg.Add(1)
	p.tasks <- task
}

// Wait blocks until all submitted tasks have completed. If any task
// panicked since the last Wait, the first recorded panic is re-raised
// here as a *WorkerPanic; the record is cleared, so the pool stays
// usable after the caller recovers.
func (p *Pool) Wait() {
	p.wg.Wait()
	if wp := p.first.Swap(nil); wp != nil {
		panic(wp)
	}
}

// Close shuts the pool down after draining in-flight tasks. Submitting
// after Close panics. Close is idempotent. Like Wait, Close re-raises
// the first unconsumed task panic after the drain completes.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		p.wg.Wait()
		close(p.tasks)
	}
	if wp := p.first.Swap(nil); wp != nil {
		panic(wp)
	}
}

// Package parallel provides a small work-sharing runtime used by the
// compute-heavy parts of the repository: blocked matrix multiplication,
// temporal neighbor sampling, and the concurrent embedding cache.
//
// It plays the role that OpenMP and Intel TBB play in the original TGOpt
// C++ extension. The one primitive is deliberately simple: a structured
// fork-join parallel-for (ForChunked, and ForWorkers, its form that
// tells each chunk which worker runs it) that spawns a bounded number of
// goroutines. It also runs chunks on the calling goroutine, so nesting
// it never deadlocks; it merely oversubscribes slightly, which the Go
// scheduler absorbs. It falls back to a serial loop when the configured
// parallelism is 1 or the trip count is too small to amortize goroutine
// startup.
//
// # Panic propagation
//
// A panic inside a parallel body never wedges the caller: worker
// goroutines recover, the remaining workers drain, and the first
// recovered panic is re-raised on the calling goroutine — as a
// *WorkerPanic carrying the original value and worker stack — once every
// sibling has finished. The serial fallback runs the body on the
// calling goroutine, so its panics propagate natively, unwrapped.
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
// It is re-raised on the goroutine that called ForChunked, where the
// worker's own stack is already gone; Stack preserves it for debugging.
type WorkerPanic struct {
	Value any    // the value passed to panic on the worker
	Stack []byte // the worker's stack at the point of the panic
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", p.Value)
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

// WillFanOut reports whether ForChunked(n, 0, body) will run chunks on
// more than one goroutine. It is the one cut-off every kernel consults:
// the body closure escapes through ForChunked, so callers on a
// zero-allocation path build it only when this is true and call their
// row kernel directly otherwise.
func WillFanOut(n int) bool { return FansOut(n, Degree()) }

// FansOut is WillFanOut at a degree the caller read once: whether
// ForWorkers(n, chunk, degree, body) may use more than one worker.
func FansOut(n, degree int) bool { return degree > 1 && n >= MinParallelWork }

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
	forkJoinRun(n, chunk, Degree(), body, nil)
}

// ForWorkers is ForChunked at a degree the caller read once, telling
// each body call which worker runs it: body(w, lo, hi) with
// 0 <= w < degree, and no two concurrent calls share a w. A caller
// sizes per-worker scratch from the same degree it passes here and
// indexes it by w. The serial fallback (!FansOut(n, degree), or a chunk
// covering n) is a single body(0, 0, n) call.
func ForWorkers(n, chunk, degree int, body func(w, lo, hi int)) {
	forkJoinRun(n, chunk, degree, nil, body)
}

// forkJoinRun is the one fork-join behind ForChunked and ForWorkers:
// exactly one of body and wbody is non-nil.
func forkJoinRun(n, chunk, degree int, body func(lo, hi int), wbody func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 && degree > 0 {
		chunk = max(n/(2*degree), 1)
	}
	if !FansOut(n, degree) || chunk >= n {
		if body != nil {
			body(0, n)
		} else {
			wbody(0, 0, n)
		}
		return
	}
	nchunks := (n + chunk - 1) / chunk
	// The calling goroutine is the final worker.
	workers := min(degree-1, nchunks-1)
	fj := forkJoinPool.Get().(*forkJoin)
	fj.n, fj.chunk, fj.nchunks, fj.body, fj.wbody = n, chunk, nchunks, body, wbody
	fj.next.Store(0)
	fj.worker.Store(0)
	fj.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go fj.workFn()
	}
	fj.run(0)
	fj.wg.Wait()
	// Every worker has left run: the state can go back to the pool
	// before the panic, if any, unwinds this frame.
	wp := fj.first.Swap(nil)
	fj.body, fj.wbody = nil, nil
	forkJoinPool.Put(fj)
	if wp != nil {
		panic(wp)
	}
}

// forkJoin is the shared state of one fan-out. It is pooled,
// and so is workFn, the method value its spawned workers run: a fan-out
// then costs the caller's body closure only, not a counter, a panic
// slot, a WaitGroup and a closure per worker of its own. Nested
// fan-outs each check out their own.
type forkJoin struct {
	n, chunk, nchunks int
	body              func(lo, hi int)
	wbody             func(w, lo, hi int)
	workFn            func() // fj.work, built once per pooled state
	next              atomic.Int64
	worker            atomic.Int64 // spawned workers taken: worker w runs as index w
	first             atomic.Pointer[WorkerPanic]
	wg                sync.WaitGroup
}

var forkJoinPool = sync.Pool{New: func() any {
	fj := new(forkJoin)
	fj.workFn = fj.work
	return fj
}}

// work is a spawned worker's whole life. Spawned workers number
// themselves 1, 2, … off a counter (the caller is worker 0), so the go
// statement passes no argument and the fan-out allocates nothing.
func (fj *forkJoin) work() {
	defer fj.wg.Done()
	fj.run(int(fj.worker.Add(1)))
}

// run pulls chunks off the shared counter as worker w until they run
// out or a sibling has panicked, capturing its own panic into fj.first.
func (fj *forkJoin) run(w int) {
	defer record(&fj.first)
	for fj.first.Load() == nil {
		c := int(fj.next.Add(1)) - 1
		if c >= fj.nchunks {
			return
		}
		lo := c * fj.chunk
		hi := min(lo+fj.chunk, fj.n)
		if fj.body != nil {
			fj.body(lo, hi)
		} else {
			fj.wbody(w, lo, hi)
		}
	}
}

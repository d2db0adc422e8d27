package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForChunkedCoversAllIndicesExactlyOnce(t *testing.T) {
	prop := func(n uint16, chunk uint8) bool {
		nn := int(n) % 5000
		seen := make([]int32, nn)
		ForChunked(nn, int(chunk), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForChunkedChunksAreOrderedAndDisjoint(t *testing.T) {
	var total atomic.Int64
	ForChunked(10000, 97, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty or inverted chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != 10000 {
		t.Fatalf("chunks cover %d elements, want 10000", total.Load())
	}
}

func TestForChunkedZeroAndNegative(t *testing.T) {
	called := false
	ForChunked(0, 10, func(lo, hi int) { called = true })
	ForChunked(-5, 10, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	var count atomic.Int64
	ForChunked(600, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForChunked(600, 50, func(lo, hi int) {
				count.Add(int64(hi - lo))
			})
		}
	})
	if count.Load() != 600*600 {
		t.Fatalf("nested loops executed %d iterations, want %d", count.Load(), 600*600)
	}
}

func TestSetDegreeSerialFallback(t *testing.T) {
	prev := SetDegree(1)
	defer SetDegree(prev)
	if Degree() != 1 {
		t.Fatalf("Degree() = %d after SetDegree(1)", Degree())
	}
	// In serial mode the body must still cover everything, on this goroutine.
	n := 0
	ForChunked(1000, 10, func(lo, hi int) { n += hi - lo }) // not atomic: safe only because serial
	if n != 1000 {
		t.Fatalf("serial ForChunked executed %d iterations, want 1000", n)
	}
}

func TestSetDegreeResetsToGOMAXPROCS(t *testing.T) {
	prev := SetDegree(3)
	if Degree() != 3 {
		t.Fatalf("Degree() = %d, want 3", Degree())
	}
	SetDegree(0)
	if Degree() < 1 {
		t.Fatalf("Degree() = %d after reset, want >= 1", Degree())
	}
	SetDegree(prev)
}

func TestForChunkedPanicPropagates(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	recovered := func() (r any) {
		defer func() { r = recover() }()
		ForChunked(MinParallelWork*4, 7, func(lo, hi int) {
			if lo >= MinParallelWork {
				panic(lo)
			}
		})
		return nil
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T %v, want *WorkerPanic", recovered, recovered)
	}
	if _, ok := wp.Value.(int); !ok {
		t.Fatalf("WorkerPanic.Value = %v, want the body's int", wp.Value)
	}
}

func TestNestedPanicNotDoubleWrapped(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	recovered := func() (r any) {
		defer func() { r = recover() }()
		ForChunked(MinParallelWork*2, MinParallelWork, func(lo, hi int) {
			if lo == 0 {
				ForChunked(MinParallelWork*2, 3, func(lo, hi int) { panic("inner") })
			}
		})
		return nil
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
	if wp.Value != "inner" {
		t.Fatalf("WorkerPanic.Value = %v, want unwrapped \"inner\"", wp.Value)
	}
}

func TestSerialPanicUnwrapped(t *testing.T) {
	prev := SetDegree(1)
	defer SetDegree(prev)
	defer func() {
		if r := recover(); r != "serial boom" {
			t.Fatalf("serial path recovered %v, want the raw value", r)
		}
	}()
	ForChunked(MinParallelWork*2, 0, func(lo, hi int) { panic("serial boom") })
}

func TestForChunkedBoundedWorkers(t *testing.T) {
	// The regression: chunk=1 with a large n used to spawn one goroutine
	// per chunk (~n goroutines). Workers must now be capped by Degree.
	const degree = 4
	prev := SetDegree(degree)
	defer SetDegree(prev)
	before := runtime.NumGoroutine()
	var inFlight, maxInFlight atomic.Int32
	ForChunked(100000, 1, func(lo, hi int) {
		cur := inFlight.Add(1)
		for {
			m := maxInFlight.Load()
			if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
				break
			}
		}
		inFlight.Add(-1)
	})
	if got := maxInFlight.Load(); got > degree {
		t.Fatalf("observed %d concurrent bodies, degree %d", got, degree)
	}
	// Goroutine count during the loop is harder to observe exactly, but
	// afterwards nothing may linger.
	after := runtime.NumGoroutine()
	if after > before+degree {
		t.Fatalf("goroutines grew from %d to %d", before, after)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	sink := make([]float64, 1<<14)
	b.Run("serial", func(b *testing.B) {
		prev := SetDegree(1)
		defer SetDegree(prev)
		for i := 0; i < b.N; i++ {
			ForChunked(len(sink), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					sink[j] += 1
				}
			})
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ForChunked(len(sink), 0, func(lo, hi int) {
				for j := lo; j < hi; j++ {
					sink[j] += 1
				}
			})
		}
	})
}

// The machine running tests may have a single CPU, in which case the
// package-level helpers short-circuit to the serial path and the
// fan-out code never executes. Force a higher degree to exercise it.

func TestForChunkedParallelPathForced(t *testing.T) {
	prev := SetDegree(4)
	defer SetDegree(prev)
	var count atomic.Int64
	seen := make([]int32, 10000)
	ForChunked(len(seen), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
		count.Add(int64(hi - lo))
	})
	if count.Load() != int64(len(seen)) {
		t.Fatalf("covered %d of %d", count.Load(), len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForChunkedExplicitChunkParallel(t *testing.T) {
	prev := SetDegree(8)
	defer SetDegree(prev)
	var total atomic.Int64
	ForChunked(MinParallelWork*3, 17, func(lo, hi int) {
		total.Add(int64(hi - lo))
	})
	if total.Load() != MinParallelWork*3 {
		t.Fatalf("total = %d", total.Load())
	}
	// Chunk larger than n falls back to one call.
	calls := 0
	ForChunked(MinParallelWork, MinParallelWork*2, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("oversized chunk made %d calls", calls)
	}
}

func TestNestedParallelForcedDegree(t *testing.T) {
	prev := SetDegree(3)
	defer SetDegree(prev)
	var count atomic.Int64
	ForChunked(MinParallelWork*2, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ForChunked(MinParallelWork*2, 0, func(lo, hi int) {
				count.Add(int64(hi - lo))
			})
		}
	})
	want := int64(MinParallelWork * 2 * MinParallelWork * 2)
	if count.Load() != want {
		t.Fatalf("nested executed %d, want %d", count.Load(), want)
	}
}

// TestForChunkedFanOutAllocs pins the price of one fan-out: the fork-
// join state and its workers' method value are pooled, so a prebuilt
// body fans out for nothing, and a body built per call costs itself.
func TestForChunkedFanOutAllocs(t *testing.T) {
	prev := SetDegree(2)
	defer SetDegree(prev)
	var sink atomic.Int64
	n := 4 * MinParallelWork
	if !WillFanOut(n) {
		t.Fatalf("WillFanOut(%d) false at degree 2", n)
	}
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	ForChunked(n, 0, body) // fill the pool
	if allocs := testing.AllocsPerRun(50, func() { ForChunked(n, 0, body) }); allocs != 0 {
		t.Errorf("fan-out of a prebuilt body costs %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ForChunked(n, 0, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	}); allocs > 1 {
		t.Errorf("fan-out costs %v allocs, want <= 1 (the body)", allocs)
	}
	// Below the cut-off nothing escapes and nothing is spawned.
	small := MinParallelWork - 1
	if WillFanOut(small) {
		t.Fatalf("WillFanOut(%d) true", small)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ForChunked(small, 0, func(lo, hi int) { sink.Add(int64(hi - lo)) })
	}); allocs > 1 {
		t.Errorf("serial ForChunked costs %v allocs, want <= 1 (the body)", allocs)
	}
}

// TestForChunkedStateReusedAfterPanic: the pooled state must come back
// clean after a fan-out that panicked — no stale panic, no stale body.
func TestForChunkedStateReusedAfterPanic(t *testing.T) {
	prev := SetDegree(2)
	defer SetDegree(prev)
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if _, ok := recover().(*WorkerPanic); !ok {
					t.Fatal("panic not re-raised as *WorkerPanic")
				}
			}()
			ForChunked(MinParallelWork*2, 8, func(lo, hi int) { panic("boom") })
		}()
		var total atomic.Int64
		ForChunked(MinParallelWork*2, 8, func(lo, hi int) { total.Add(int64(hi - lo)) })
		if total.Load() != MinParallelWork*2 {
			t.Fatalf("round %d: after a panicked fan-out the next covered %d of %d", round, total.Load(), MinParallelWork*2)
		}
	}
}

// TestForWorkersCoversEveryIndexOnce: the worker-indexed form covers
// [0, n) exactly once at any chunk and degree, and every worker index
// is below the degree the caller passed, whatever Degree() says.
func TestForWorkersCoversEveryIndexOnce(t *testing.T) {
	prev := SetDegree(1) // ForWorkers must use the degree it is given
	defer SetDegree(prev)
	prop := func(n uint16, chunk uint8, deg uint8) bool {
		nn, degree := int(n)%5000, int(deg)%8+1
		seen := make([]int32, nn)
		ok := atomic.Bool{}
		ok.Store(true)
		ForWorkers(nn, int(chunk), degree, func(w, lo, hi int) {
			if w < 0 || w >= degree {
				ok.Store(false)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return ok.Load()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	ForWorkers(MinParallelWork-1, 1, 4, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != MinParallelWork-1 {
			t.Errorf("serial fallback ran body(%d, %d, %d)", w, lo, hi)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("below the cut-off: %d body calls, want 1", calls)
	}
}

// TestForWorkersNoSharedIndex: a worker index is a worker's own for the
// whole fan-out, so bodies write per-index scratch without atomics. The
// plain writes to owner[w] are what the race detector watches; the
// claim flags catch a shared index without it.
func TestForWorkersNoSharedIndex(t *testing.T) {
	for _, degree := range []int{2, 3, 4} {
		claimed := make([]atomic.Bool, degree)
		owner := make([]int, degree)
		var bad atomic.Int32
		ForWorkers(20*MinParallelWork, 1, degree, func(w, lo, hi int) {
			if !claimed[w].CompareAndSwap(false, true) {
				bad.Add(1)
				return
			}
			for i := lo; i < hi; i++ {
				owner[w] += i
			}
			claimed[w].Store(false)
		})
		if bad.Load() != 0 {
			t.Fatalf("degree %d: %d body calls ran on an index another call held", degree, bad.Load())
		}
		sum := 0
		for _, s := range owner {
			sum += s
		}
		if n := 20 * MinParallelWork; sum != n*(n-1)/2 {
			t.Fatalf("degree %d: per-index sums total %d, want %d", degree, sum, n*(n-1)/2)
		}
	}
}

// TestForWorkersPanicPropagates: the worker-indexed form shares
// ForChunked's panic path: wrapped once, re-raised after the join, and
// the pooled state comes back clean.
func TestForWorkersPanicPropagates(t *testing.T) {
	for round := 0; round < 5; round++ {
		recovered := func() (r any) {
			defer func() { r = recover() }()
			ForWorkers(MinParallelWork*4, 7, 4, func(w, lo, hi int) {
				if lo >= MinParallelWork {
					panic(lo)
				}
			})
			return nil
		}()
		wp, ok := recovered.(*WorkerPanic)
		if !ok {
			t.Fatalf("recovered %T %v, want *WorkerPanic", recovered, recovered)
		}
		if _, ok := wp.Value.(int); !ok {
			t.Fatalf("WorkerPanic.Value = %v, want the body's int", wp.Value)
		}
		var total atomic.Int64
		ForWorkers(MinParallelWork*2, 8, 4, func(w, lo, hi int) { total.Add(int64(hi - lo)) })
		if total.Load() != MinParallelWork*2 {
			t.Fatalf("round %d: after a panicked fan-out the next covered %d of %d", round, total.Load(), MinParallelWork*2)
		}
	}
}

// TestForWorkersFanOutAllocs: the worker-indexed fan-out costs what
// ForChunked's does — nothing for a prebuilt body, the body when built
// per call — since spawned workers take their index off a counter.
func TestForWorkersFanOutAllocs(t *testing.T) {
	var sink atomic.Int64
	n := 4 * MinParallelWork
	body := func(w, lo, hi int) { sink.Add(int64(w + hi - lo)) }
	ForWorkers(n, 32, 2, body) // fill the pool
	if allocs := testing.AllocsPerRun(50, func() { ForWorkers(n, 32, 2, body) }); allocs != 0 {
		t.Errorf("fan-out of a prebuilt body costs %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		ForWorkers(n, 32, 2, func(w, lo, hi int) { sink.Add(int64(w + hi - lo)) })
	}); allocs > 1 {
		t.Errorf("fan-out costs %v allocs, want <= 1 (the body)", allocs)
	}
}

package tensor

import "sync"

// Arena is a per-worker scratch allocator for the inference hot path.
// It hands out tensors and typed slices whose backing storage is reused
// across batches: every allocation is satisfied by bumping through a
// list of retained slots, and Reset rewinds the bump pointers without
// freeing anything. After a warmup pass has grown each slot to its
// steady-state capacity, a batch of identical shape performs zero heap
// allocations (see DESIGN.md §9).
//
// Lifecycle: check an arena out (NewArena, or GetArena/PutArena for the
// pooled variant), call Reset at the start of each batch, and treat
// every tensor or slice obtained from it as invalid once Reset or
// PutArena is called. An Arena is NOT safe for concurrent use; each
// goroutine owns its own. It is safe to *read* arena-backed tensors
// from parallel.ForChunked bodies as long as the arena itself is only
// bumped outside the parallel region — the kernels preallocate every
// buffer before fanning out.
//
// All methods are nil-safe: a nil *Arena falls back to ordinary heap
// allocation, so code can thread an optional arena through one code
// path instead of maintaining allocating and non-allocating twins.
type Arena struct {
	tensors []*Tensor // value slots: data owned by the arena
	ti      int
	views   []*Tensor // header-only slots: data owned by the caller
	vi      int
	f32     slabs[float32]
	f64     slabs[float64]
	i32     slabs[int32]
	u64     slabs[uint64]
	bls     slabs[bool]
}

// slabs reuses typed scratch slices slot-by-slot: the i-th request
// between Resets always lands on the i-th retained buffer, growing it
// once if the requested length ever exceeds its capacity. Because a
// steady-state batch issues the same request sequence every time, every
// slot converges to its high-water capacity and stops allocating.
type slabs[T any] struct {
	bufs [][]T
	i    int
}

func (s *slabs[T]) get(n int) []T {
	if s.i < len(s.bufs) && cap(s.bufs[s.i]) >= n {
		b := s.bufs[s.i][:n]
		s.i++
		return b
	}
	b := make([]T, n, roundCap(n))
	if s.i < len(s.bufs) {
		s.bufs[s.i] = b
	} else {
		s.bufs = append(s.bufs, b)
	}
	s.i++
	return b
}

// roundCap rounds a slot capacity up so that a slot whose request size
// wobbles (e.g. the final short batch of a stream) does not reallocate
// on every size change.
func roundCap(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset rewinds the arena: every previously handed-out tensor and slice
// becomes invalid and its storage is eligible for reuse by subsequent
// allocations. Nothing is freed.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.ti = 0
	a.vi = 0
	a.f32.i = 0
	a.f64.i = 0
	a.i32.i = 0
	a.u64.i = 0
	a.bls.i = 0
}

// Tensor returns a tensor of the given shape with UNINITIALIZED
// contents (it may hold data from a previous batch): clear it when the
// kernel accumulates instead of overwriting.
func (a *Arena) Tensor(shape ...int) *Tensor {
	if a == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	var t *Tensor
	if a.ti < len(a.tensors) {
		t = a.tensors[a.ti]
	} else {
		t = &Tensor{}
		a.tensors = append(a.tensors, t)
	}
	a.ti++
	if cap(t.data) < n {
		t.data = make([]float32, n, roundCap(n))
	}
	t.data = t.data[:n]
	t.setShape(shape)
	return t
}

// Wrap returns a tensor header over caller-owned storage, like
// FromSlice but with the header itself recycled by the arena. The data
// slice is retained, not copied.
func (a *Arena) Wrap(data []float32, shape ...int) *Tensor {
	if a == nil {
		return FromSlice(data, shape...)
	}
	n := checkShape(shape)
	if len(data) != n {
		panic("tensor: Arena.Wrap data length does not match shape")
	}
	var t *Tensor
	if a.vi < len(a.views) {
		t = a.views[a.vi]
	} else {
		t = &Tensor{}
		a.views = append(a.views, t)
	}
	a.vi++
	t.data = data
	t.setShape(shape)
	return t
}

// setShape installs shape into t, reusing t's shape slice when it has
// capacity (the arena steady-state path).
func (t *Tensor) setShape(shape []int) {
	if cap(t.shape) >= len(shape) {
		t.shape = t.shape[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = append(make([]int, 0, 4), shape...)
	}
}

// Float32s returns an uninitialized scratch slice of length n.
func (a *Arena) Float32s(n int) []float32 {
	if a == nil {
		return make([]float32, n)
	}
	return a.f32.get(n)
}

// Float64s returns an uninitialized scratch slice of length n.
func (a *Arena) Float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.get(n)
}

// Int32s returns an uninitialized scratch slice of length n.
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.get(n)
}

// Uint64s returns an uninitialized scratch slice of length n.
func (a *Arena) Uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.u64.get(n)
}

// Bools returns an uninitialized scratch slice of length n.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bls.get(n)
}

var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// GetArena checks a reset arena out of the process-wide pool. Pair with
// PutArena. Long-lived workers (a serving goroutine, a stream-inference
// worker) should instead hold one arena for their whole lifetime and
// Reset it per batch, so a GC-cleared pool can never force a re-warm in
// the middle of steady-state traffic.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.Reset()
	return a
}

// PutArena returns an arena to the pool. The caller must not use the
// arena — or anything allocated from it — afterwards.
func PutArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}

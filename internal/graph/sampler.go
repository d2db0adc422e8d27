package graph

import (
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// Strategy selects how temporal neighbors are sampled.
type Strategy int

const (
	// MostRecent keeps the k most recent interactions before the target
	// time. This is the strategy the paper focuses on (§2 "Temporal
	// Sampling"): it preserves the relative order of neighbors as the
	// graph evolves, which is what makes embedding memoization sound.
	MostRecent Strategy = iota
	// Uniform samples k interactions uniformly at random from the
	// temporal prefix. Provided for the sampling-strategy ablation; the
	// TGOpt cache must not be combined with it (re-sampling the same
	// target would pick a different subgraph).
	Uniform
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case MostRecent:
		return "most-recent"
	case Uniform:
		return "uniform"
	default:
		return "unknown"
	}
}

// Batch holds a flattened sampled neighborhood for n target
// node–timestamp pairs with k neighbor slots each. Slot j of target i is
// at position i*K+j. Unfilled slots are padded with node 0, edge 0,
// time = target time (so Δt is 0) and Valid=false.
type Batch struct {
	K     int
	Nghs  []int32   // len n*K, neighbor node ids (0 = padding)
	EIdxs []int32   // len n*K, 1-based edge ids (0 = padding)
	Times []float64 // len n*K, edge timestamps
	Valid []bool    // len n*K, slot validity mask
}

// Sampler draws bounded temporal neighborhoods from a graph — the
// NghLookup operation of the paper's Algorithm 1. It is safe for
// concurrent use: sampling state is per-call.
type Sampler struct {
	g        *Graph   // nil when sampling a Dynamic
	d        *Dynamic // nil when sampling a Graph
	k        int
	strategy Strategy
	seed     uint64
}

// NewSampler creates a sampler over an immutable graph drawing up to k
// neighbors per target using the given strategy. seed only matters for
// Uniform.
func NewSampler(g *Graph, k int, strategy Strategy, seed uint64) *Sampler {
	if k < 1 {
		panic("graph: sampler k must be >= 1")
	}
	return &Sampler{g: g, k: k, strategy: strategy, seed: seed}
}

// NewDynamicSampler creates a sampler over a streaming graph. Each
// Sample call reads one graph state: it holds the graph's read lock
// throughout, so writes land between calls, never inside one. Appends
// are observed by later calls but — thanks to the strict t_j < t
// constraint — never change the neighborhood of an already-sampled
// target.
func NewDynamicSampler(d *Dynamic, k int, strategy Strategy, seed uint64) *Sampler {
	if k < 1 {
		panic("graph: sampler k must be >= 1")
	}
	return &Sampler{d: d, k: k, strategy: strategy, seed: seed}
}

// K returns the per-target neighbor budget.
func (s *Sampler) K() int { return s.k }

// Strategy returns the sampling strategy.
func (s *Sampler) Strategy() Strategy { return s.strategy }

// Dynamic returns the underlying streaming graph, or nil when the
// sampler was built over an immutable Graph.
func (s *Sampler) Dynamic() *Dynamic { return s.d }

// Sample draws the temporal neighborhoods of the given node–timestamp
// targets. The per-target work is independent and is parallelized
// across the worker pool, mirroring the paper's C++ parallel sampler.
func (s *Sampler) Sample(nodes []int32, ts []float64) *Batch {
	n := len(nodes)
	b := &Batch{
		K:     s.k,
		Nghs:  make([]int32, n*s.k),
		EIdxs: make([]int32, n*s.k),
		Times: make([]float64, n*s.k),
		Valid: make([]bool, n*s.k),
	}
	s.SampleTo(b, nodes, ts)
	return b
}

// SampleTo is Sample writing into b, whose slices must already have
// length n*k (typically drawn from a tensor.Arena by the hot inference
// path). Every slot of every slice is written — callers may pass dirty
// reused buffers. Over a Dynamic, the whole call holds the graph's read
// lock: every window is copied into b under it, from one graph state.
func (s *Sampler) SampleTo(b *Batch, nodes []int32, ts []float64) {
	if len(nodes) != len(ts) {
		panic("graph: Sample nodes/ts length mismatch")
	}
	n := len(nodes)
	if len(b.Nghs) != n*s.k || len(b.EIdxs) != n*s.k || len(b.Times) != n*s.k || len(b.Valid) != n*s.k {
		panic("graph: SampleTo batch buffers sized wrong")
	}
	b.K = s.k
	if s.d != nil {
		s.d.mu.RLock()
		defer s.d.mu.RUnlock()
	}
	if parallel.WillFanOut(n) {
		// Capture a copy of the header (the slices still share backing
		// arrays) so the caller's *Batch does not leak into the escaping
		// closure — hot callers keep the Batch on their stack.
		bb := *b
		parallel.ForChunked(n, 0, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.sampleOne(nodes[i], ts[i], &bb, i)
			}
		})
		return
	}
	for i := 0; i < n; i++ {
		s.sampleOne(nodes[i], ts[i], b, i)
	}
}

func (s *Sampler) sampleOne(v int32, t float64, b *Batch, i int) {
	base := i * s.k
	// Write every slot explicitly — the buffers may be recycled arena
	// scratch. Padding slots carry the target time so Δt = t - time = 0
	// for them, matching the baseline TGAT implementation's zero-padded
	// deltas.
	for j := 0; j < s.k; j++ {
		b.Nghs[base+j] = 0
		b.EIdxs[base+j] = 0
		b.Times[base+j] = t
		b.Valid[base+j] = false
	}
	if v == 0 {
		return
	}
	var nghs, eidxs []int32
	var times []float64
	if s.d != nil {
		nghs, eidxs, times = s.d.windowLocked(v, t)
	} else {
		nghs, eidxs, times = s.g.window(v, t)
	}
	count := len(nghs)
	if count == 0 {
		return
	}
	take := count
	if take > s.k {
		take = s.k
	}
	switch s.strategy {
	case MostRecent:
		// Keep chronological order within the slot window, taking the
		// most recent `take` interactions.
		start := count - take
		for j := 0; j < take; j++ {
			p := start + j
			b.Nghs[base+j] = nghs[p]
			b.EIdxs[base+j] = eidxs[p]
			b.Times[base+j] = times[p]
			b.Valid[base+j] = true
		}
	case Uniform:
		if count <= s.k {
			for j := 0; j < take; j++ {
				b.Nghs[base+j] = nghs[j]
				b.EIdxs[base+j] = eidxs[j]
				b.Times[base+j] = times[j]
				b.Valid[base+j] = true
			}
			return
		}
		// Deterministic per-(node,time,seed) stream so repeated calls in
		// one experiment are reproducible, while still differing across
		// targets.
		r := tensor.NewRNG(s.seed ^ uint64(v)<<32 ^ uint64(int64(t)))
		for j := 0; j < take; j++ {
			p := r.Intn(count)
			b.Nghs[base+j] = nghs[p]
			b.EIdxs[base+j] = eidxs[p]
			b.Times[base+j] = times[p]
			b.Valid[base+j] = true
		}
	}
}

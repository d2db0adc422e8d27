package core

import (
	"math"
	"sync"
	"sync/atomic"

	"tgopt/internal/tensor"
)

// The top-layer memo's geometry is fixed: a serving tick re-asks a pool
// of a few hundred ⟨node, now⟩ targets, so 16 384 direct-mapped slots
// keep slot collisions inside one tick rare while the table (rows plus
// slot headers, ≈ 2.4 MiB at d = 32) stays a rounding error beside the
// lower caches. See DESIGN.md "Top-layer memo".
const (
	topMemoRows    = 1 << 14
	topMemoStripes = 64
)

// topMemoSlot is one slot's header; its row lives at the same index in
// topMemo.rows. epoch is the engine's memo epoch the row was computed
// under (Engine.memoEpoch, bumped at the end of every path that repairs
// or drops memo state, edge invalidations included). A zeroed slot
// never matches: epochs start at 1.
type topMemoSlot struct {
	node  int32
	tbits uint64
	epoch int64
}

// topMemo memoizes top-layer output rows on engines over a live graph:
// a fixed, pre-allocated, direct-mapped table keyed by the exact
// ⟨node, Float64bits(t)⟩ and validated by the memo epoch. It holds no
// dependency records and has no invalidation scan — a write's
// invalidation drops every row by moving the epoch — and lookups and
// stores allocate nothing. The stored row is the
// float32 row the pass produced, bit for bit.
type topMemo struct {
	dim   int
	slots []topMemoSlot
	rows  []float32
	mu    [topMemoStripes]stripeMutex

	lookups, hits, stores atomic.Int64
}

// stripeMutex pads each stripe lock to its own cache line.
type stripeMutex struct {
	sync.Mutex
	_ [56]byte
}

func newTopMemo(dim int) *topMemo {
	return &topMemo{
		dim:   dim,
		slots: make([]topMemoSlot, topMemoRows),
		rows:  make([]float32, topMemoRows*dim),
	}
}

// topMemoSlotOf maps a target to its slot.
func topMemoSlotOf(node int32, tbits uint64) int {
	return int(pairHash(node, tbits) & (topMemoRows - 1))
}

// lookup copies every memoized row whose slot matches the target and
// the epoch exactly into the same row of h, marks it in hit, and
// returns the hit count. hit is fully overwritten.
func (m *topMemo) lookup(epoch int64, nodes []int32, ts []float64, h *tensor.Tensor, hit []bool) int {
	d := m.dim
	dst := h.Data()
	nhits := 0
	for i, v := range nodes {
		tb := math.Float64bits(ts[i])
		p := topMemoSlotOf(v, tb)
		mu := &m.mu[p%topMemoStripes]
		mu.Lock()
		s := &m.slots[p]
		ok := s.node == v && s.tbits == tb && s.epoch == epoch
		if ok {
			copy(dst[i*d:(i+1)*d], m.rows[p*d:(p+1)*d])
		}
		mu.Unlock()
		hit[i] = ok
		if ok {
			nhits++
		}
	}
	m.lookups.Add(int64(len(nodes)))
	m.hits.Add(int64(nhits))
	return nhits
}

// store writes the rows of h under the given epoch, each evicting
// whatever its slot held.
func (m *topMemo) store(epoch int64, nodes []int32, ts []float64, h *tensor.Tensor) {
	d := m.dim
	src := h.Data()
	for i, v := range nodes {
		tb := math.Float64bits(ts[i])
		p := topMemoSlotOf(v, tb)
		mu := &m.mu[p%topMemoStripes]
		mu.Lock()
		m.slots[p] = topMemoSlot{node: v, tbits: tb, epoch: epoch}
		copy(m.rows[p*d:(p+1)*d], src[i*d:(i+1)*d])
		mu.Unlock()
	}
	m.stores.Add(int64(len(nodes)))
}

// TopMemoStats counts the top-layer memo's traffic in target rows:
// lookups and hits, and rows stored.
type TopMemoStats struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Stores  int64 `json:"stores"`
}

// Add accumulates o into s (per-shard aggregation).
func (s *TopMemoStats) Add(o TopMemoStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Stores += o.Stores
}

// TopMemoStats returns the top-layer memo's counters; zero on engines
// without one (static sampler, cache disabled, or a cached top layer).
func (e *Engine) TopMemoStats() TopMemoStats {
	m := e.topMemo
	if m == nil {
		return TopMemoStats{}
	}
	return TopMemoStats{
		Lookups: m.lookups.Load(),
		Hits:    m.hits.Load(),
		Stores:  m.stores.Load(),
	}
}

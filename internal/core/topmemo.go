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

// memoStamp is the validity stamp of a top-layer memo row: g is the
// live graph's change count (Mutations + Appends, which moves the
// instant the graph changes) and e the engine's memo epoch (bumped at
// the end of every path that repairs or drops memo state). Both only
// grow, so a pair read while a write is in flight can never equal a
// pair read after that write finished.
type memoStamp struct{ g, e int64 }

// topMemoSlot is one slot's header; its row lives at the same index in
// topMemo.rows. A zeroed slot never matches: epochs start at 1.
type topMemoSlot struct {
	node  int32
	tbits uint64
	stamp memoStamp
}

// topMemo memoizes top-layer output rows on engines over a live graph:
// a fixed, pre-allocated, direct-mapped table keyed by the exact
// ⟨node, Float64bits(t)⟩ (core.Key truncates t, this does not) and
// validated by a memoStamp. It holds no dependency records and has no
// invalidation scan — a write invalidates every row by moving the stamp
// — and lookups and stores allocate nothing. The stored row is the
// float32 row the pass produced, bit for bit.
type topMemo struct {
	dim   int
	slots []topMemoSlot
	rows  []float32
	mu    [topMemoStripes]stripeMutex

	lookups, hits, stores, staleSkips atomic.Int64
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
	return int(mix64(tbits^uint64(uint32(node))*0x9E3779B97F4A7C15) & (topMemoRows - 1))
}

// lookup copies every memoized row whose slot matches the target and
// the stamp exactly into the same row of h, marks it in hit, and
// returns the hit count. hit is fully overwritten.
func (m *topMemo) lookup(st memoStamp, nodes []int32, ts []float64, h *tensor.Tensor, hit []bool) int {
	d := m.dim
	dst := h.Data()
	nhits := 0
	for i, v := range nodes {
		tb := math.Float64bits(ts[i])
		p := topMemoSlotOf(v, tb)
		mu := &m.mu[p%topMemoStripes]
		mu.Lock()
		s := &m.slots[p]
		ok := s.node == v && s.tbits == tb && s.stamp == st
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

// store writes the rows of h under the given stamp, each evicting
// whatever its slot held.
func (m *topMemo) store(st memoStamp, nodes []int32, ts []float64, h *tensor.Tensor) {
	d := m.dim
	src := h.Data()
	for i, v := range nodes {
		tb := math.Float64bits(ts[i])
		p := topMemoSlotOf(v, tb)
		mu := &m.mu[p%topMemoStripes]
		mu.Lock()
		m.slots[p] = topMemoSlot{node: v, tbits: tb, stamp: st}
		copy(m.rows[p*d:(p+1)*d], src[i*d:(i+1)*d])
		mu.Unlock()
	}
	m.stores.Add(int64(len(nodes)))
}

// TopMemoStats counts the top-layer memo's traffic in target rows:
// lookups and hits, rows stored, and rows computed but not stored
// because the stamp moved while their pass ran.
type TopMemoStats struct {
	Lookups    int64 `json:"lookups"`
	Hits       int64 `json:"hits"`
	Stores     int64 `json:"stores"`
	StaleSkips int64 `json:"stale_skips"`
}

// Add accumulates o into s (per-shard aggregation).
func (s *TopMemoStats) Add(o TopMemoStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Stores += o.Stores
	s.StaleSkips += o.StaleSkips
}

// TopMemoStats returns the top-layer memo's counters; zero on engines
// without one (static sampler, cache disabled, or a cached top layer).
func (e *Engine) TopMemoStats() TopMemoStats {
	m := e.topMemo
	if m == nil {
		return TopMemoStats{}
	}
	return TopMemoStats{
		Lookups:    m.lookups.Load(),
		Hits:       m.hits.Load(),
		Stores:     m.stores.Load(),
		StaleSkips: m.staleSkips.Load(),
	}
}

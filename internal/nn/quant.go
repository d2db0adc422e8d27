package nn

import (
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// This file holds the int8 inference variants of the forward-only
// layers (DESIGN.md §14). Weights are quantized ONCE, at model load or
// hot swap, into tensor.QuantMat's packed-lane layout; per-request work
// is limited to quantizing activations row-by-row into arena scratch
// and running the packed kernel. The quantized operators mirror the
// float ForwardWith contracts exactly — same shapes, same arena
// discipline, zero steady-state heap allocations — so the engine can
// select a precision per request without touching batch assembly.

// QuantLinear is a Linear whose weight matrix has been pre-quantized to
// the packed int8 layout. The bias stays float32: it is added after
// dequantization, where it is exact.
type QuantLinear struct {
	W *tensor.QuantMat
	B *tensor.Tensor // (out) or nil
}

// QuantizeLinear quantizes l's weights per output row. The returned
// layer shares l's bias tensor (biases are never quantized).
func QuantizeLinear(l *Linear) *QuantLinear {
	return &QuantLinear{W: tensor.QuantizeMat(l.W), B: l.B}
}

// In returns the input dimension.
func (l *QuantLinear) In() int { return l.W.In }

// Out returns the output dimension.
func (l *QuantLinear) Out() int { return l.W.Out }

// ForwardWith computes x·Wᵀ+b through the int8 kernel, with every
// intermediate and the output drawn from ar (heap when ar is nil). Each
// chunk of rows is quantized into arena scratch and multiplied in the
// same pass; the row loop parallelizes when parallel.WillFanOut(m).
func (l *QuantLinear) ForwardWith(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	m, k, n := x.Dim(0), x.Dim(1), l.Out()
	qs := quantScratch{q: ar.Bytes(m * k), scales: ar.Float32s(m), sums: ar.Int32s(m)}
	dst := ar.Tensor(m, n)
	xd, dd := x.Data(), dst.Data()
	// Closure built only on the fan-out branch, so the serial path
	// stays allocation-free.
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) {
			l.rows(xd[lo*k:hi*k], hi-lo, dd[lo*n:hi*n], nil, quantScratch{q: qs.q[lo*k:], scales: qs.scales[lo:], sums: qs.sums[lo:]})
		})
	} else {
		l.rows(xd, m, dd, nil, qs)
	}
	return dst
}

// QuantMergeLayer is the int8 variant of MergeLayer. The concat and
// ReLU between the two projections stay float32 — they are cheap and
// keeping them exact means the only error sources are the two matmuls.
type QuantMergeLayer struct {
	FC1, FC2 *QuantLinear
}

// QuantizeMergeLayer quantizes both projections of m.
func QuantizeMergeLayer(m *MergeLayer) *QuantMergeLayer {
	return &QuantMergeLayer{FC1: QuantizeLinear(m.FC1), FC2: QuantizeLinear(m.FC2)}
}

// ForwardWith mirrors MergeLayer.ForwardWith through the int8 kernels.
func (m *QuantMergeLayer) ForwardWith(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	cat := ar.Tensor(a.Dim(0), a.Dim(1)+b.Dim(1))
	tensor.ConcatColsInto(cat, a, b)
	h := m.FC1.ForwardWith(ar, cat)
	tensor.ReLUInPlace(h)
	return m.FC2.ForwardWith(ar, h)
}

// QuantTemporalAttention is TemporalAttention with the two per-target
// projections, WQ and WO, quantized. Keys and values go through the same
// absorbedAttention core as the float operator, over the float WK/WV
// (shared with the source operator, not copied): the core never
// projects the n·k neighbor rows, so there is no tall matmul left for
// int8 to speed up, and the kv activations are never quantized.
type QuantTemporalAttention struct {
	Heads    int
	EmbedDim int
	QDim     int
	KDim     int

	WQ, WO *QuantLinear
	WK, WV *Linear
}

// QuantizeAttention quantizes a's query and output projections.
func QuantizeAttention(a *TemporalAttention) *QuantTemporalAttention {
	return &QuantTemporalAttention{
		Heads:    a.Heads,
		EmbedDim: a.EmbedDim,
		QDim:     a.QDim,
		KDim:     a.KDim,
		WQ:       QuantizeLinear(a.WQ),
		WO:       QuantizeLinear(a.WO),
		WK:       a.WK,
		WV:       a.WV,
	}
}

// ForwardWith mirrors TemporalAttention.ForwardWith: n targets with k
// neighbor slots each, kv row i*k+j is slot j of target i, mask marks
// valid slots. Returns (n, embedDim) drawn from ar.
func (a *QuantTemporalAttention) ForwardWith(ar *tensor.Arena, q, kv *tensor.Tensor, k int, mask []bool) *tensor.Tensor {
	qp := a.WQ.ForwardWith(ar, q)
	ctx := absorbedAttention(ar, a.WK, a.WV, a.Heads, qp, kv, k, mask, nil)
	return a.WO.ForwardWith(ar, ctx)
}

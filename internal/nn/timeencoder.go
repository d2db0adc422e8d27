// Package nn provides the neural-network layers that make up the TGAT
// model: the functional time encoder Φ(Δt) = cos(ω·Δt + φ), linear
// projections, the multi-head temporal attention operator (Eq. 6 of the
// paper), the MergeLayer feed-forward update (Eq. 7), loss functions and
// the Adam optimizer used for link-prediction training.
//
// All forward passes here are inference-oriented (pure tensor ops, no
// tape). Training uses internal/autograd, which rebuilds the same
// computations over the identical parameter tensors, so weights learned
// by the trainer are directly consumed by these layers.
package nn

import (
	"math"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// TimeEncoder implements TGAT's learnable time encoding
// Φ(Δt) = cos(ω·Δt + φ) with ω, φ ∈ R^d (Eq. 8 of the paper).
type TimeEncoder struct {
	Omega *tensor.Tensor // frequencies, shape [d]
	Phi   *tensor.Tensor // phases, shape [d]
}

// NewTimeEncoder creates a time encoder with the TGAT initialization:
// ω_i = 1 / 10^(9·i/(d-1)) — geometrically spaced frequencies spanning
// nine decades — and φ = 0.
func NewTimeEncoder(d int) *TimeEncoder {
	omega := tensor.New(d)
	for i := 0; i < d; i++ {
		expo := 0.0
		if d > 1 {
			expo = 9 * float64(i) / float64(d-1)
		}
		omega.Data()[i] = float32(1 / math.Pow(10, expo))
	}
	return &TimeEncoder{Omega: omega, Phi: tensor.New(d)}
}

// Dim returns the encoding dimensionality d_t.
func (te *TimeEncoder) Dim() int { return te.Omega.Len() }

// Encode maps each time delta to its d_t-dimensional encoding, producing
// shape (len(dts), d_t).
func (te *TimeEncoder) Encode(dts []float64) *tensor.Tensor {
	out := tensor.New(len(dts), te.Dim())
	te.EncodeInto(dts, out)
	return out
}

// EncodeInto is Encode writing into a preallocated (len(dts), d_t)
// tensor. The hot path of the baseline model calls this per batch; TGOpt
// mostly replaces it with table lookups (§4.3). Rows are independent —
// d_t cosines each — so the row loop parallelizes when
// parallel.WillFanOut(len(dts)).
func (te *TimeEncoder) EncodeInto(dts []float64, dst *tensor.Tensor) {
	data := dst.Data()
	// Closure built only on the fan-out branch, so the serial path
	// stays allocation-free.
	if parallel.WillFanOut(len(dts)) {
		parallel.ForChunked(len(dts), 0, func(lo, hi int) { te.encodeRows(dts, data, lo, hi) })
	} else {
		te.encodeRows(dts, data, 0, len(dts))
	}
}

func (te *TimeEncoder) encodeRows(dts []float64, data []float32, lo, hi int) {
	d := te.Dim()
	for i := lo; i < hi; i++ {
		te.EncodeRow(dts[i], data[i*d:(i+1)*d])
	}
}

// EncodeRow writes Φ(dt) into row (length d_t): the one place the
// encoding is evaluated, shared by EncodeInto and the time table's miss
// path.
func (te *TimeEncoder) EncodeRow(dt float64, row []float32) {
	om := te.Omega.Data()
	tensor.CosRow(row[:len(om)], dt, om, te.Phi.Data())
}

// EncodeScalar computes Φ(dt) as a single d_t vector.
func (te *TimeEncoder) EncodeScalar(dt float64) *tensor.Tensor {
	return te.Encode([]float64{dt}).Reshape(te.Dim())
}

// Params returns the trainable tensors.
func (te *TimeEncoder) Params() []*tensor.Tensor { return []*tensor.Tensor{te.Omega, te.Phi} }

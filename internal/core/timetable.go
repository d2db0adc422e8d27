package core

import (
	"math"
	"sync/atomic"

	"tgopt/internal/nn"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// TimeTable is the precomputed time-encoding store of §4.3. Unlike the
// 128-interval lookup table of Zhou et al. (which alters semantics),
// TGOpt precomputes Φ(Δt) exactly for every integral Δt in a contiguous
// window starting at 0, so the Δt value itself indexes a dense tensor
// and the lookup is semantics-preserving. Misses (fractional, negative,
// or beyond-window deltas) fall back to the original computation.
type TimeTable struct {
	enc    *nn.TimeEncoder
	window int
	table  *tensor.Tensor // (window, d); nil in quant mode
	// Quant mode replaces the float table with per-row int8 codes and
	// scales (~4× smaller residency). Rows dequantize on copy-out; Φ(0)
	// stays an exact float row — it is reused on every single target, so
	// its error would be systematic, and keeping it exact is free.
	qtable  []int8    // (window·d) codes, nil in float mode
	qscales []float32 // (window) per-row scales
	phi0    []float32 // Φ(0) row, kept separately for the z_i path
}

// NewTimeTable precomputes the window [0, window) of time encodings.
// The paper uses a 10,000-wide window.
func NewTimeTable(enc *nn.TimeEncoder, window int) *TimeTable {
	return newTimeTable(enc, window, false)
}

// NewTimeTableQuant is NewTimeTable storing the precomputed rows
// int8-quantized (per-row scale), trading ≤ scale/2 per-element error
// for a 4× smaller table. Miss-path encodings stay exact float32.
func NewTimeTableQuant(enc *nn.TimeEncoder, window int) *TimeTable {
	return newTimeTable(enc, window, true)
}

func newTimeTable(enc *nn.TimeEncoder, window int, quant bool) *TimeTable {
	if window < 1 {
		panic("core: time table window must be >= 1")
	}
	tt := &TimeTable{enc: enc, window: window}
	dts := make([]float64, window)
	for i := range dts {
		dts[i] = float64(i)
	}
	full := enc.Encode(dts)
	d := enc.Dim()
	tt.phi0 = make([]float32, d)
	copy(tt.phi0, full.Data()[:d])
	if !quant {
		tt.table = full
		return tt
	}
	tt.qtable = make([]int8, window*d)
	tt.qscales = make([]float32, window)
	for i := 0; i < window; i++ {
		tt.qscales[i] = tensor.QuantizeVecInto(full.Data()[i*d:(i+1)*d], tt.qtable[i*d:(i+1)*d])
	}
	return tt
}

// Quant reports whether the table rows are stored int8-quantized.
func (tt *TimeTable) Quant() bool { return tt.qtable != nil }

// Window returns the precomputed range length.
func (tt *TimeTable) Window() int { return tt.window }

// Dim returns the encoding width d_t.
func (tt *TimeTable) Dim() int { return tt.enc.Dim() }

// EncodeZerosInto fills the n rows of dst with the precomputed Φ(0) —
// the "compute once, reuse indefinitely" optimization for z_i(t) of
// §3.3.
func (tt *TimeTable) EncodeZerosInto(n int, dst *tensor.Tensor) {
	d := tt.Dim()
	data := dst.Data()
	for i := 0; i < n; i++ {
		copy(data[i*d:(i+1)*d], tt.phi0)
	}
}

// EncodeInto fills dst (len(dts), d) with time encodings, copying
// precomputed rows for integral in-window deltas and computing the rest
// with the original encoder. It returns the number of table hits
// (instrumented by the breakdown analysis).
func (tt *TimeTable) EncodeInto(dts []float64, dst *tensor.Tensor) int {
	return tt.EncodeIntoWith(nil, dts, dst)
}

// EncodeIntoWith is EncodeInto on the arena path. Hits and misses are
// served in one pass over the rows — a miss is encoded straight into
// its destination row, so there is no miss scratch to draw and ar goes
// unused; the parameter stays for the callers that thread an arena
// through every *With call. The row loop parallelizes when
// parallel.WillFanOut(len(dts)): out-of-window deltas are d cosines
// each, and no window covers a stream whose deltas span six decades.
func (tt *TimeTable) EncodeIntoWith(_ *tensor.Arena, dts []float64, dst *tensor.Tensor) int {
	data := dst.Data()
	// Closure and counter built only on the fan-out branch, so the
	// serial path stays allocation-free.
	if parallel.WillFanOut(len(dts)) {
		var hits atomic.Int64
		parallel.ForChunked(len(dts), 0, func(lo, hi int) {
			hits.Add(int64(tt.encodeRows(dts, data, lo, hi)))
		})
		return int(hits.Load())
	}
	return tt.encodeRows(dts, data, 0, len(dts))
}

// encodeRows fills rows [lo,hi) of data and returns their table hits.
func (tt *TimeTable) encodeRows(dts []float64, data []float32, lo, hi int) int {
	d := tt.Dim()
	var tab []float32
	if tt.table != nil {
		tab = tt.table.Data()
	}
	hits := 0
	for i := lo; i < hi; i++ {
		dt := dts[i]
		row := data[i*d : (i+1)*d]
		idx := int(dt)
		if dt >= 0 && float64(idx) == dt && idx < tt.window {
			if tab != nil {
				copy(row, tab[idx*d:(idx+1)*d])
			} else {
				// Quantized rows dequantize on copy-out: one multiply
				// per element instead of a copy.
				tensor.DequantizeVecInto(tt.qtable[idx*d:(idx+1)*d], tt.qscales[idx], row)
			}
			hits++
			continue
		}
		tt.enc.EncodeRow(dt, row)
	}
	return hits
}

// Encode is EncodeInto with allocation.
func (tt *TimeTable) Encode(dts []float64) (*tensor.Tensor, int) {
	out := tensor.New(len(dts), tt.Dim())
	hits := tt.EncodeInto(dts, out)
	return out, hits
}

// Bytes returns the memory footprint of the precomputed table.
func (tt *TimeTable) Bytes() int64 {
	if tt.qtable != nil {
		return int64(len(tt.qtable)) + int64(len(tt.qscales)+len(tt.phi0))*4
	}
	return int64(tt.table.Len()+len(tt.phi0)) * 4
}

// Verify checks that every table row matches a fresh encoder evaluation
// within tol (used by the self-test and property tests). In quant mode
// the comparison is against the dequantized row, so tol must absorb the
// quantization step (≤ scale/2 per element).
func (tt *TimeTable) Verify(tol float64) bool {
	d := tt.Dim()
	for i := 0; i < tt.window; i++ {
		fresh := tt.enc.EncodeScalar(float64(i))
		for j := 0; j < d; j++ {
			var got float64
			if tt.qtable != nil {
				got = float64(tt.qscales[i]) * float64(tt.qtable[i*d+j])
			} else {
				got = float64(tt.table.At(i, j))
			}
			if math.Abs(got-float64(fresh.At(j))) > tol {
				return false
			}
		}
	}
	return true
}

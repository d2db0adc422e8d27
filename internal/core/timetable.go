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
	table  *tensor.Tensor // (window, d); row 0 is Φ(0), the z_i path's row
}

// NewTimeTable precomputes the window [0, window) of time encodings.
// The paper uses a 10,000-wide window.
func NewTimeTable(enc *nn.TimeEncoder, window int) *TimeTable {
	if window < 1 {
		panic("core: time table window must be >= 1")
	}
	dts := make([]float64, window)
	for i := range dts {
		dts[i] = float64(i)
	}
	return &TimeTable{enc: enc, window: window, table: enc.Encode(dts)}
}

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
	phi0 := tt.table.Data()[:d]
	for i := 0; i < n; i++ {
		copy(data[i*d:(i+1)*d], phi0)
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
	tab := tt.table.Data()
	hits := 0
	for i := lo; i < hi; i++ {
		dt := dts[i]
		row := data[i*d : (i+1)*d]
		idx := int(dt)
		if dt >= 0 && float64(idx) == dt && idx < tt.window {
			copy(row, tab[idx*d:(idx+1)*d])
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
func (tt *TimeTable) Bytes() int64 { return int64(tt.table.Len()) * 4 }

// Verify checks that every table row matches a fresh encoder evaluation
// within tol (used by the self-test and property tests).
func (tt *TimeTable) Verify(tol float64) bool {
	d := tt.Dim()
	for i := 0; i < tt.window; i++ {
		fresh := tt.enc.EncodeScalar(float64(i))
		for j := 0; j < d; j++ {
			if math.Abs(float64(tt.table.At(i, j))-float64(fresh.At(j))) > tol {
				return false
			}
		}
	}
	return true
}

package core

import (
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

// EncodeIntoWith fills dst (len(dts), d) with time encodings, copying
// precomputed rows for integral in-window deltas and computing the rest
// with the original encoder, and returns the number of table hits.
// Hits and misses are served in one pass over the rows — a miss is
// encoded straight into its destination row, so there is no miss
// scratch to draw and ar goes unused; the parameter stays for the
// callers that thread an arena through every *With call. The row loop
// parallelizes when parallel.WillFanOut(len(dts)): out-of-window deltas
// are d cosines each, and no window covers a stream whose deltas span
// six decades. The engine's layer pass encodes its deltas in its tiles
// instead, one EncodeRow per valid slot (nn.TimeRows).
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
	hits := 0
	for i := lo; i < hi; i++ {
		if tt.encodeRow(dts[i], data[i*d:(i+1)*d]) {
			hits++
		}
	}
	return hits
}

// EncodeRow writes Φ(dt) into row (length d): the table's row for an
// integral in-window dt, the encoder's evaluation otherwise — the same
// bits either way. It makes the table an nn.TimeSource, which the
// engine's layer pass calls per valid neighbor slot.
func (tt *TimeTable) EncodeRow(dt float64, row []float32) { tt.encodeRow(dt, row) }

// encodeRow is the table's one hit rule: a dt that is integral,
// non-negative and below the window indexes the table; anything else
// (fractional, negative, beyond the window, NaN) is encoded afresh. It
// reports a hit.
func (tt *TimeTable) encodeRow(dt float64, row []float32) bool {
	idx := int(dt)
	if dt >= 0 && float64(idx) == dt && idx < tt.window {
		d := tt.Dim()
		copy(row, tt.table.Data()[idx*d:(idx+1)*d])
		return true
	}
	tt.enc.EncodeRow(dt, row)
	return false
}

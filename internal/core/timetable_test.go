package core

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tgopt/internal/nn"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

func TestTimeTableZeroRow(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	tt := NewTimeTable(enc, 10)
	dst := tensor.New(3, 4)
	tt.EncodeZerosInto(3, dst)
	want := enc.EncodeScalar(0)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if dst.At(i, j) != want.At(j) {
				t.Fatalf("zero row (%d,%d) = %v, want %v", i, j, dst.At(i, j), want.At(j))
			}
		}
	}
}

func TestTimeTableHitsAndMisses(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	tt := NewTimeTable(enc, 10)
	dts := []float64{0, 5, 9, 10, 2.5, -1, 1e9}
	out, hits := tt.Encode(dts)
	if hits != 3 { // 0, 5, 9 in window; 10 (== window) is out; 2.5 fractional; -1 negative
		t.Fatalf("hits = %d, want 3", hits)
	}
	want := enc.Encode(dts)
	if !out.AllClose(want, 0) {
		t.Fatalf("table output differs from direct encoding: %g", out.MaxAbsDiff(want))
	}
}

func TestTimeTableSemanticsPreservingProperty(t *testing.T) {
	enc := nn.NewTimeEncoder(16)
	tt := NewTimeTable(enc, 1000)
	prop := func(raw []int16, frac bool) bool {
		dts := make([]float64, len(raw))
		for i, v := range raw {
			dts[i] = float64(v)
			if frac {
				dts[i] += 0.5
			}
		}
		out, _ := tt.Encode(dts)
		return out.AllClose(enc.Encode(dts), 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeTableAllMisses(t *testing.T) {
	enc := nn.NewTimeEncoder(4)
	tt := NewTimeTable(enc, 2)
	out, hits := tt.Encode([]float64{100, 200})
	if hits != 0 {
		t.Fatalf("hits = %d", hits)
	}
	if !out.AllClose(enc.Encode([]float64{100, 200}), 0) {
		t.Fatal("miss fallback wrong")
	}
}

func TestTimeTableWindowPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window 0 did not panic")
		}
	}()
	NewTimeTable(nn.NewTimeEncoder(4), 0)
}

// mixedDeltas returns n deltas of which roughly a quarter hit a
// 1000-wide window; the misses are integral and out of window,
// fractional, or negative.
func mixedDeltas(n int) []float64 {
	r := tensor.NewRNG(13)
	dts := make([]float64, n)
	for i := range dts {
		switch r.Intn(8) {
		case 0, 1:
			dts[i] = float64(r.Intn(1000))
		case 2:
			dts[i] = float64(r.Intn(1000)) + 0.25
		case 3:
			dts[i] = -float64(r.Intn(50) + 1)
		default:
			dts[i] = float64(1000 + r.Intn(5_000_000))
		}
	}
	return dts
}

// TestTimeTableParallelMatchesSerialBitwise: the row split decides only
// which goroutine encodes a row. Either side of the fan-out cut-off:
// same bits, same hit count.
func TestTimeTableParallelMatchesSerialBitwise(t *testing.T) {
	enc := nn.NewTimeEncoder(16)
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	tt := NewTimeTable(enc, 1000)
	for _, n := range []int{1, parallel.MinParallelWork - 1, parallel.MinParallelWork, 3000} {
		dts := mixedDeltas(n)
		parallel.SetDegree(1)
		serial := tensor.New(n, 16)
		wantHits := tt.EncodeIntoWith(nil, dts, serial)
		for _, degree := range []int{2, 4} {
			parallel.SetDegree(degree)
			split := tensor.New(n, 16)
			split.Fill(float32(math.NaN()))
			if hits := tt.EncodeIntoWith(nil, dts, split); hits != wantHits {
				t.Fatalf("n=%d degree %d: %d hits, serial %d", n, degree, hits, wantHits)
			}
			for i, v := range split.Data() {
				if math.Float32bits(v) != math.Float32bits(serial.Data()[i]) {
					t.Fatalf("n=%d degree %d: element %d differs from the serial encoding", n, degree, i)
				}
			}
		}
	}
	// The encoder's own entry point splits the same way.
	dts := mixedDeltas(3000)
	parallel.SetDegree(1)
	serial := enc.Encode(dts)
	parallel.SetDegree(2)
	if d := enc.Encode(dts).MaxAbsDiff(serial); d != 0 {
		t.Fatalf("TimeEncoder.EncodeInto degree 2 vs 1: diff %g", d)
	}
}

// TestTimeTableEncodeAllocs: a miss is encoded in place, so below the
// fan-out cut-off the call never touches the heap at any degree — even
// without an arena; past it, it costs one fork-join and the shared hit
// counter.
func TestTimeTableEncodeAllocs(t *testing.T) {
	tt := NewTimeTable(nn.NewTimeEncoder(16), 1000)
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	for _, tc := range []struct{ degree, n, max int }{{1, 64, 0}, {2, 64, 0}, {1, 512, 0}, {2, 512, 8}} {
		parallel.SetDegree(tc.degree)
		dts := mixedDeltas(tc.n)
		dst := tensor.New(tc.n, 16)
		if allocs := testing.AllocsPerRun(20, func() { tt.EncodeIntoWith(nil, dts, dst) }); allocs > float64(tc.max) {
			t.Errorf("degree %d n=%d: %v allocs/op, want <= %d", tc.degree, tc.n, allocs, tc.max)
		}
	}
}

// Window returns the precomputed range length.
func (tt *TimeTable) Window() int { return tt.window }

// Encode is EncodeInto with allocation.
func (tt *TimeTable) Encode(dts []float64) (*tensor.Tensor, int) {
	out := tensor.New(len(dts), tt.Dim())
	hits := tt.EncodeInto(dts, out)
	return out, hits
}

// EncodeInto fills dst (len(dts), d) with time encodings, copying
// precomputed rows for integral in-window deltas and computing the rest
// with the original encoder. It returns the number of table hits
// (instrumented by the breakdown analysis).
func (tt *TimeTable) EncodeInto(dts []float64, dst *tensor.Tensor) int {
	return tt.EncodeIntoWith(nil, dts, dst)
}

// nanGuard is a time source that counts the NaN deltas it is asked to
// encode.
type nanGuard struct {
	*TimeTable
	nans *atomic.Int64
}

func (g nanGuard) EncodeRow(dt float64, row []float32) {
	if dt != dt {
		g.nans.Add(1)
	}
	g.TimeTable.EncodeRow(dt, row)
}

// TestTimeTableLayerPassBitwise: the layer pass that encodes its slots'
// deltas through the table, in its tiles, returns the bits of the dense
// pass over one TimeEncoder.Encode slab (itself pinned to the composed
// ops in internal/nn), serial and fanned out. A quarter of the deltas
// hit the window; every padded slot's delta is NaN and is never
// encoded.
func TestTimeTableLayerPassBitwise(t *testing.T) {
	const heads, d, de, dt, k = 2, 16, 8, 16, 5
	r := tensor.NewRNG(41)
	enc := nn.NewTimeEncoder(dt)
	copy(enc.Phi.Data(), tensor.Randn(r, dt).Data())
	tt := NewTimeTable(enc, 1000)
	attn := nn.NewTemporalAttention(r, heads, d+dt, d+de+dt)
	merge := nn.NewMergeLayer(r, d+dt, d, 24, d)
	prev := parallel.Degree()
	defer parallel.SetDegree(prev)
	for _, degree := range []int{1, 2, 4} {
		parallel.SetDegree(degree)
		for _, n := range []int{40, 700} {
			hTgt, hNgh, eFeat := tensor.Randn(r, n, d), tensor.Randn(r, n*k, d), tensor.Randn(r, n*k, de)
			tEnc0 := enc.Encode(make([]float64, n))
			deltas := mixedDeltas(n * k)
			mask := make([]bool, n*k)
			for s := range mask {
				mask[s] = s%k < (s/k)%(k+1) // target i has i mod (k+1) valid slots
				if !mask[s] {
					deltas[s] = math.NaN()
				}
			}
			want := nn.LayerForwardWith(nil, attn, merge, k, hTgt, hNgh, eFeat, tEnc0, enc.Encode(deltas), mask)
			var nans atomic.Int64
			pack := nn.PackLayer(nil, attn, merge)
			got, _ := nn.LayerForwardPacked(nil, attn, merge, &pack, k, nn.Rows{Data: hTgt}, nn.Rows{Data: hNgh}, nn.Rows{Data: eFeat},
				tEnc0, nn.TimeRows{Deltas: deltas, Source: nanGuard{tt, &nans}}, mask)
			if nans.Load() != 0 {
				t.Fatalf("degree %d n=%d: %d padded slots' deltas were encoded", degree, n, nans.Load())
			}
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("degree %d n=%d: element %d is %v through the table, %v over the dense slab", degree, n, i, v, want.Data()[i])
				}
			}
		}
	}
}

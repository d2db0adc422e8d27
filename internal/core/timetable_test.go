package core

import (
	"math"
	"testing"
	"testing/quick"

	"tgopt/internal/nn"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

func TestTimeTableVerify(t *testing.T) {
	enc := nn.NewTimeEncoder(8)
	tt := NewTimeTable(enc, 100)
	if !tt.Verify(0) {
		t.Fatal("precomputed rows differ from fresh encoding")
	}
	if tt.Window() != 100 || tt.Dim() != 8 {
		t.Fatalf("accessors wrong: %d %d", tt.Window(), tt.Dim())
	}
	if tt.Bytes() <= 0 {
		t.Fatal("Bytes not positive")
	}
}

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

package tensor

import (
	"math"
	"testing"

	"tgopt/internal/parallel"
)

// quantLinearNaive is the reference for the packed int8 kernel: extract
// each biased byte from the lane words and accumulate the textbook way.
// It shares the quantized inputs and the exact dequantization formula,
// so the optimized kernel must match it bitwise.
func quantLinearNaive(q []uint8, scales []float32, sums []int32, m int, w *QuantMat, bias, dst *Tensor) {
	k, n := w.In, w.Out
	const mask21 = 1<<21 - 1
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			p := j / quantPanelOuts
			t := (j % quantPanelOuts) / 3
			shift := uint(21 * ((j % quantPanelOuts) % 3))
			var u int64
			for kk := 0; kk < k; kk++ {
				uw := (w.lanes[p*k*4+kk*4+t] >> shift) & mask21
				u += int64(q[i*k+kk]) * int64(uw)
			}
			s := int32(u) - 128*sums[i] - 128*w.colSums[j] + int32(16384*k)
			v := scales[i] * w.Scales[j] * float32(s)
			if bias != nil {
				v += bias.data[j]
			}
			dst.data[i*n+j] = v
		}
	}
}

func quantizeActivations(x *Tensor) (q []uint8, scales []float32, sums []int32) {
	m, k := x.Dim(0), x.Dim(1)
	q = make([]uint8, m*k)
	scales = make([]float32, m)
	sums = make([]int32, m)
	QuantizeRowsInto(x, q, scales, sums)
	return q, scales, sums
}

func TestQuantizeVecRoundTrip(t *testing.T) {
	r := NewRNG(31)
	src := Randn(r, 1, 64).Data()
	q := make([]int8, len(src))
	scale := QuantizeVecInto(src, q)
	if scale <= 0 {
		t.Fatalf("scale %g, want > 0", scale)
	}
	dst := make([]float32, len(src))
	DequantizeVecInto(q, scale, dst)
	// Symmetric rounding bounds the per-element error by half a step.
	bound := float64(scale)/2 + 1e-6
	for i := range src {
		if d := math.Abs(float64(src[i] - dst[i])); d > bound {
			t.Errorf("elem %d: round-trip error %g exceeds %g", i, d, bound)
		}
	}
	// The max-magnitude element hits the end of the int8 range exactly.
	var maxQ int8
	for _, v := range q {
		if v > maxQ {
			maxQ = v
		} else if -v > maxQ {
			maxQ = -v
		}
	}
	if maxQ != 127 {
		t.Errorf("max |q| = %d, want 127", maxQ)
	}
}

func TestQuantizeVecZeroRow(t *testing.T) {
	src := make([]float32, 8)
	q := make([]int8, 8)
	if scale := QuantizeVecInto(src, q); scale != 0 {
		t.Fatalf("zero row scale %g, want 0", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero row quantized to nonzero")
		}
	}
	dst := make([]float32, 8)
	DequantizeVecInto(q, 0, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("zero row did not dequantize to zero")
		}
	}
}

func TestQuantLinearMatchesNaiveInt8(t *testing.T) {
	r := NewRNG(32)
	for _, s := range kernelShapes {
		x := Randn(r, s.m, s.k)
		w := QuantizeMat(Randn(r, s.n, s.k))
		bias := Randn(r, s.n)
		q, scales, sums := quantizeActivations(x)
		want := New(s.m, s.n)
		quantLinearNaive(q, scales, sums, s.m, w, bias, want)
		got := New(s.m, s.n)
		got.Fill(999)
		QuantLinearInto(q, scales, sums, s.m, w, bias, got)
		// Identical integer accumulation and dequant formula → bitwise.
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("QuantLinearInto %dx%dx%d: max diff %g from int8 naive", s.m, s.k, s.n, d)
		}
	}
}

func TestQuantLinearCloseToFloat(t *testing.T) {
	r := NewRNG(33)
	for _, s := range kernelShapes {
		x := Randn(r, s.m, s.k)
		wf := Randn(r, s.n, s.k)
		bias := Randn(r, s.n)
		want := New(s.m, s.n)
		LinearInto(x, wf, bias, want)
		w := QuantizeMat(wf)
		q, scales, sums := quantizeActivations(x)
		got := New(s.m, s.n)
		QuantLinearInto(q, scales, sums, s.m, w, bias, got)
		// Per-element quantization error is ≤ half a step on each
		// operand; a k-term dot product compounds to roughly
		// k·(sx·|w|max + sw·|x|max)/2. Use that bound with slack.
		var maxX, maxW float32
		for _, v := range x.Data() {
			if v < 0 {
				v = -v
			}
			if v > maxX {
				maxX = v
			}
		}
		for _, v := range wf.Data() {
			if v < 0 {
				v = -v
			}
			if v > maxW {
				maxW = v
			}
		}
		tol := float64(s.k) * float64(maxX*maxW) / 127.0 * 1.5
		if d := float64(got.MaxAbsDiff(want)); d > tol {
			t.Errorf("QuantLinearInto %dx%dx%d: max diff %g from float, tol %g", s.m, s.k, s.n, d, tol)
		}
	}
}

func TestQuantLinearZeroWeightRow(t *testing.T) {
	r := NewRNG(34)
	wf := Randn(r, 4, 8)
	for kk := 0; kk < 8; kk++ {
		wf.Set(0, 1, kk) // zero output row 1
	}
	w := QuantizeMat(wf)
	x := Randn(r, 3, 8)
	bias := Randn(r, 4)
	q, scales, sums := quantizeActivations(x)
	dst := New(3, 4)
	QuantLinearInto(q, scales, sums, 3, w, bias, dst)
	for i := 0; i < 3; i++ {
		if got := dst.At(i, 1); got != bias.At(1) {
			t.Errorf("zero weight row: got %g, want bias %g", got, bias.At(1))
		}
	}
}

func TestQuantLinearParallelMatchesSerial(t *testing.T) {
	r := NewRNG(35)
	x := Randn(r, 512, 40)
	w := QuantizeMat(Randn(r, 24, 40))
	q, scales, sums := quantizeActivations(x)
	par := New(512, 24)
	QuantLinearInto(q, scales, sums, 512, w, nil, par)
	prev := parallel.SetDegree(1)
	ser := New(512, 24)
	QuantLinearInto(q, scales, sums, 512, w, nil, ser)
	parallel.SetDegree(prev)
	if d := par.MaxAbsDiff(ser); d != 0 {
		t.Errorf("parallel vs serial QuantLinearInto: diff %g", d)
	}
}

// TestQuantLinearRowsMatchesQuantLinearInto: the fused quantize+kernel
// row call gives any row range the bits of the two-step whole-batch
// path, odd ranges (a single-row tail, a different pairing) included.
func TestQuantLinearRowsMatchesQuantLinearInto(t *testing.T) {
	r := NewRNG(38)
	const m, k, n = 301, 40, 24
	x := Randn(r, m, k)
	w := QuantizeMat(Randn(r, n, k))
	bias := Randn(r, n)
	q, scales, sums := quantizeActivations(x)
	want := New(m, n)
	QuantLinearInto(q, scales, sums, m, w, bias, want)
	for _, rg := range [][2]int{{0, 1}, {1, 2}, {5, 38}, {6, 39}, {0, 301}} {
		lo, hi := rg[0], rg[1]
		rows := hi - lo
		got := make([]float32, rows*n)
		QuantLinearRows(x.Data()[lo*k:hi*k], rows, w, bias, got, make([]uint8, rows*k), make([]float32, rows), make([]int32, rows))
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want.Data()[lo*n+i]) {
				t.Fatalf("rows [%d,%d): element %d differs from QuantLinearInto", lo, hi, i)
			}
		}
	}
}

// The int8 kernels share the float kernels' steady-state contract:
// with caller-provided scratch, zero heap allocations — at degree 2 as
// well, m = 128 being below the fan-out cut-off.
func TestQuantKernelAllocs(t *testing.T) {
	r := NewRNG(37)
	x := Randn(r, 128, 96)
	w := QuantizeMat(Randn(r, 64, 96))
	bias := Randn(r, 64)
	q := make([]uint8, 128*96)
	scales := make([]float32, 128)
	sums := make([]int32, 128)
	dst := New(128, 64)
	qv := make([]int8, 96)
	fv := make([]float32, 96)
	for _, degree := range []int{1, 2} {
		prev := parallel.SetDegree(degree)
		for name, fn := range map[string]func(){
			"QuantizeRowsInto": func() { QuantizeRowsInto(x, q, scales, sums) },
			"QuantLinearInto":  func() { QuantLinearInto(q, scales, sums, 128, w, bias, dst) },
			"QuantLinearRows":  func() { QuantLinearRows(x.Data(), 128, w, bias, dst.Data(), q, scales, sums) },
			"QuantizeVecInto":  func() { QuantizeVecInto(x.Data()[:96], qv) },
			"DequantizeVec":    func() { DequantizeVecInto(qv, 0.01, fv) },
		} {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("degree %d %s: %v allocs/op, want 0", degree, name, allocs)
			}
		}
		parallel.SetDegree(prev)
	}
}

func TestArenaInt8AndByteSlabs(t *testing.T) {
	ar := NewArena()
	a := ar.Int8s(32)
	b := ar.Bytes(64)
	ar.Reset()
	if a2 := ar.Int8s(16); &a2[0] != &a[0] {
		t.Error("arena did not reuse int8 slab after Reset")
	}
	if b2 := ar.Bytes(32); &b2[0] != &b[0] {
		t.Error("arena did not reuse byte slab after Reset")
	}
	var nilAr *Arena
	if len(nilAr.Int8s(3)) != 3 || len(nilAr.Bytes(3)) != 3 {
		t.Fatal("nil arena int8/byte slices failed")
	}
}

// BenchmarkQuantVsFloatLinear measures the int8 packed kernel against
// the float32 kernels at the attention shape (m=2048, k=96, n=64). Every
// sub-benchmark uses the same float-equivalent byte volume, so MB/s
// compares element throughput directly. Like the float kernel lines,
// the int8 line measures the matmul itself — the per-batch activation
// quantize pass is its own line (and is included in the e2e numbers).
func BenchmarkQuantVsFloatLinear(b *testing.B) {
	r := NewRNG(38)
	const m, k, n = 2048, 96, 64
	x := Randn(r, m, k)
	bmat := Randn(r, k, n)
	wf := Randn(r, n, k)
	bias := Randn(r, n)
	dst := New(m, n)
	bytes := int64(4 * (m*k + k*n + m*n))
	b.Run("float32_blocked", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			MatMulInto(x, bmat, dst)
		}
	})
	b.Run("float32_linear_t", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			LinearInto(x, wf, bias, dst)
		}
	})
	w := QuantizeMat(wf)
	q := make([]uint8, m*k)
	scales := make([]float32, m)
	sums := make([]int32, m)
	QuantizeRowsInto(x, q, scales, sums)
	b.Run("int8_packed", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			QuantLinearInto(q, scales, sums, m, w, bias, dst)
		}
	})
	b.Run("int8_quantize_rows", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			QuantizeRowsInto(x, q, scales, sums)
		}
	})
}

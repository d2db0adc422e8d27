package tensor

import (
	"testing"
	"testing/quick"
	"tgopt/internal/parallel"
)

func TestNewShapeAndZeroFill(t *testing.T) {
	a := New(3, 4)
	if a.Rank() != 2 || a.Dim(0) != 3 || a.Dim(1) != 4 || a.Len() != 12 {
		t.Fatalf("unexpected geometry: rank=%d shape=%v len=%d", a.Rank(), a.Shape(), a.Len())
	}
	for i, v := range a.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnEmptyShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New() with no dims did not panic")
		}
	}()
	New()
}

func TestFromSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice mismatch did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(2, 3, 4)
	a.Set(7.5, 1, 2, 3)
	if got := a.At(1, 2, 3); got != 7.5 {
		t.Fatalf("At(1,2,3) = %v, want 7.5", got)
	}
	// Row-major layout: offset of (1,2,3) = 1*12 + 2*4 + 3 = 23.
	if a.Data()[23] != 7.5 {
		t.Fatalf("row-major offset wrong; data[23]=%v", a.Data()[23])
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	_ = a.At(2, 0)
}

func TestDimNegativeIndex(t *testing.T) {
	a := New(2, 5, 7)
	if a.Dim(-1) != 7 || a.Dim(-2) != 5 || a.Dim(-3) != 2 {
		t.Fatalf("negative Dim lookup broken: %d %d %d", a.Dim(-1), a.Dim(-2), a.Dim(-3))
	}
}

func TestRowAliasesStorage(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	r[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row does not alias storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(42, 0, 0)
	if a.At(0, 0) == 42 {
		t.Fatal("Clone shares storage with original")
	}
	if !a.SameShape(b) {
		t.Fatal("Clone changed shape")
	}
}

func TestReshapeViewSharesStorage(t *testing.T) {
	a := New(2, 6)
	b := a.Reshape(3, 4)
	b.Set(5, 0, 1)
	if a.Data()[1] != 5 {
		t.Fatal("Reshape does not share storage")
	}
	c := a.Reshape(4, -1)
	if c.Dim(1) != 3 {
		t.Fatalf("inferred dim = %d, want 3", c.Dim(1))
	}
}

func TestReshapeBadShapePanics(t *testing.T) {
	a := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	AddInPlace(a, b)
	if a.At(0, 0) != 11 {
		t.Fatalf("AddInPlace wrong: %v", a.Data())
	}
}

func TestAddRowBias(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	bias := FromSlice([]float32{10, 20, 30}, 3)
	out := AddRowBias(a, bias)
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("AddRowBias[%d] = %v, want %v", i, v, want[i])
		}
	}
	// Rank-3 broadcast over trailing dim.
	c := New(2, 2, 3)
	outc := AddRowBias(c, bias)
	if outc.At(1, 1, 2) != 30 {
		t.Fatalf("rank-3 AddRowBias wrong: %v", outc.Data())
	}
}

func TestSumMeanReductions(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	if Sum(a) != 21 {
		t.Fatalf("Sum = %v", Sum(a))
	}
	if Mean(a) != 3.5 {
		t.Fatalf("Mean = %v", Mean(a))
	}
	sr := SumRows(a)
	if sr.Data()[0] != 5 || sr.Data()[2] != 9 {
		t.Fatalf("SumRows = %v", sr.Data())
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := NewRNG(1)
	a := Rand(r, 5, 9)
	b := Transpose(Transpose(a))
	if !a.AllClose(b, 0) {
		t.Fatal("transpose twice is not identity")
	}
	at := Transpose(a)
	if at.Dim(0) != 9 || at.Dim(1) != 5 {
		t.Fatalf("transpose shape %v", at.Shape())
	}
	if at.At(3, 2) != a.At(2, 3) {
		t.Fatal("transpose element mismatch")
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	r := NewRNG(2)
	a := Rand(r, 4, 3)
	b := Rand(r, 4, 5)
	c := Rand(r, 4, 2)
	cat := ConcatCols(a, b, c)
	if cat.Dim(0) != 4 || cat.Dim(1) != 10 {
		t.Fatalf("ConcatCols shape %v", cat.Shape())
	}
	parts := SplitCols(cat, 3, 5, 2)
	for i, orig := range []*Tensor{a, b, c} {
		if !parts[i].AllClose(orig, 0) {
			t.Fatalf("SplitCols part %d does not round-trip", i)
		}
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("MatMul[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul mismatch did not panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// naiveMatMul is a deliberately simple reference for property tests.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.At(i, kk) * b.At(kk, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	r := NewRNG(4)
	prop := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		m, k, n := 1+rr.Intn(40), 1+rr.Intn(40), 1+rr.Intn(40)
		a := Rand(r, m, k)
		b := Rand(r, k, n)
		return MatMul(a, b).AllClose(naiveMatMul(a, b), 1e-4)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	r := NewRNG(5)
	a := Rand(r, 200, 64) // above the parallel threshold
	b := Rand(r, 64, 48)
	got := MatMul(a, b)
	want := naiveMatMul(a, b)
	if !got.AllClose(want, 1e-4) {
		t.Fatalf("parallel MatMul diverges from naive: maxdiff=%g", got.MaxAbsDiff(want))
	}
}

func TestMatMulTMatchesTranspose(t *testing.T) {
	r := NewRNG(6)
	a := Rand(r, 17, 23)
	b := Rand(r, 11, 23)
	got := MatMulT(a, b)
	want := MatMul(a, Transpose(b))
	if !got.AllClose(want, 1e-4) {
		t.Fatalf("MatMulT mismatch: %g", got.MaxAbsDiff(want))
	}
}

func TestBatchedMatMulMatchesPerBatch(t *testing.T) {
	r := NewRNG(8)
	bs, m, k, n := 10, 6, 5, 7
	a := Rand(r, bs, m, k)
	b := Rand(r, bs, k, n)
	c := New(bs, m, n)
	BatchedMatMulInto(a, b, c)
	for bi := 0; bi < bs; bi++ {
		av := FromSlice(a.Data()[bi*m*k:(bi+1)*m*k], m, k)
		bv := FromSlice(b.Data()[bi*k*n:(bi+1)*k*n], k, n)
		want := MatMul(av, bv)
		got := FromSlice(c.Data()[bi*m*n:(bi+1)*m*n], m, n)
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("batch %d mismatch: %g", bi, got.MaxAbsDiff(want))
		}
	}
}

func TestLinearMatchesManual(t *testing.T) {
	r := NewRNG(9)
	x := Rand(r, 4, 6)
	w := Rand(r, 3, 6)
	bias := Rand(r, 3)
	got := Linear(x, w, bias)
	want := AddRowBias(MatMul(x, Transpose(w)), bias)
	if !got.AllClose(want, 1e-5) {
		t.Fatalf("Linear mismatch: %g", got.MaxAbsDiff(want))
	}
	nb := Linear(x, w, nil)
	if nb.HasNaN() {
		t.Fatal("nil-bias Linear produced NaN")
	}
}

// Linear computes x·Wᵀ + bias for x (n, in), W (out, in) and bias [out]
// (bias may be nil). This matches the PyTorch nn.Linear weight layout so
// trained parameters round-trip naturally.
func Linear(x, w, bias *Tensor) *Tensor {
	if x.Rank() != 2 || w.Rank() != 2 {
		panic("tensor: Linear requires rank-2 operands")
	}
	out := New(x.shape[0], w.shape[0])
	LinearInto(x, w, bias, out)
	return out
}

// LinearInto is Linear writing into dst (n, out), overwriting it. The
// row loop parallelizes when parallel.WillFanOut(n); each chunk is one
// LinearRows call, so the bias rides in the same pass as the product.
func LinearInto(x, w, bias, dst *Tensor) {
	linearInto(x, w, nil, bias, dst)
}

// LinearRows computes dst = x·Wᵀ + bias for the m rows of x (m, in)
// into dst (m, out), serially on the calling goroutine: the row-range
// kernel under LinearInto, for callers already inside a parallel region
// (the fused layer pass hands it one tile at a time). Every output
// element is one fixed-order sum over its own x row, so a row's bits do
// not depend on which call computes it. bias may be nil.
func LinearRows(x []float32, m int, w, bias *Tensor, dst []float32) {
	LinearRowsPacked(x, m, w, nil, bias, dst)
}

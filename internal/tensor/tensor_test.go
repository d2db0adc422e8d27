package tensor

import (
	"fmt"
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
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add wrong: %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub wrong: %v", got)
	}
	if got := Mul(a, b).Data(); got[2] != 90 {
		t.Fatalf("Mul wrong: %v", got)
	}
	if got := Div(b, a).Data(); got[1] != 10 {
		t.Fatalf("Div wrong: %v", got)
	}
	if got := Scale(a, 2).Data(); got[3] != 8 {
		t.Fatalf("Scale wrong: %v", got)
	}
	AddInPlace(a, b)
	if a.At(0, 0) != 11 {
		t.Fatalf("AddInPlace wrong: %v", a.Data())
	}
}

func TestAXPY(t *testing.T) {
	a := FromSlice([]float32{1, 1}, 2)
	b := FromSlice([]float32{2, 4}, 2)
	AXPY(0.5, b, a)
	if a.Data()[0] != 2 || a.Data()[1] != 3 {
		t.Fatalf("AXPY wrong: %v", a.Data())
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

func TestGatherScatterInverse(t *testing.T) {
	r := NewRNG(3)
	a := Rand(r, 6, 4)
	idx := []int{5, 0, 3, 3}
	g := GatherRows(a, idx)
	if g.Dim(0) != 4 {
		t.Fatalf("gather shape %v", g.Shape())
	}
	for i, ri := range idx {
		for j := 0; j < 4; j++ {
			if g.At(i, j) != a.At(ri, j) {
				t.Fatalf("gather mismatch at (%d,%d)", i, j)
			}
		}
	}
	// ScatterAdd accumulates duplicate rows.
	dst := New(6, 4)
	ScatterAddRows(dst, idx, Ones(4, 4))
	if dst.At(3, 0) != 2 {
		t.Fatalf("ScatterAddRows duplicate accumulation = %v, want 2", dst.At(3, 0))
	}
	if dst.At(1, 0) != 0 {
		t.Fatal("ScatterAddRows touched an unindexed row")
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
	c := BatchedMatMul(a, b)
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

// BatchedMatMul computes C[b] = A[b]·B[b] for rank-3 tensors
// A (B,m,k) and B (B,k,n), producing (B,m,n).
func BatchedMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic("tensor: BatchedMatMul requires rank-3 operands")
	}
	out := New(a.shape[0], a.shape[1], b.shape[2])
	BatchedMatMulInto(a, b, out)
	return out
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

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	binaryCheck("Add", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	binaryCheck("Sub", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	binaryCheck("Mul", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	binaryCheck("Div", a, b)
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] / b.data[i]
	}
	return out
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AXPY performs a += alpha*b elementwise and returns a.
func AXPY(alpha float32, b, a *Tensor) *Tensor {
	binaryCheck("AXPY", a, b)
	for i := range a.data {
		a.data[i] += alpha * b.data[i]
	}
	return a
}

// GatherRows selects rows of a rank-2 tensor (n, w) by index, producing
// shape (len(idx), w). Indices out of range panic.
func GatherRows(a *Tensor, idx []int) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: GatherRows requires rank 2")
	}
	w := a.shape[1]
	out := New(len(idx), w)
	GatherRowsInto(a, idx, out)
	return out
}

// GatherRowsInto is GatherRows writing into dst, which must have shape
// (len(idx), w).
func GatherRowsInto(a *Tensor, idx []int, dst *Tensor) {
	w := a.shape[1]
	if dst.shape[0] != len(idx) || dst.shape[1] != w {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst shape %v, want [%d %d]", dst.shape, len(idx), w))
	}
	for i, r := range idx {
		copy(dst.data[i*w:(i+1)*w], a.data[r*w:(r+1)*w])
	}
}

// ScatterAddRows adds each row of src (shape (n, w)) into dst row idx[i].
// Used by autograd to backpropagate through GatherRows.
func ScatterAddRows(dst *Tensor, idx []int, src *Tensor) {
	w := dst.shape[1]
	if src.shape[1] != w || src.shape[0] != len(idx) {
		panic(fmt.Sprintf("tensor: ScatterAddRows src shape %v, want [%d %d]", src.shape, len(idx), w))
	}
	for i, r := range idx {
		d := dst.data[r*w : (r+1)*w]
		s := src.data[i*w : (i+1)*w]
		for j := range d {
			d[j] += s[j]
		}
	}
}

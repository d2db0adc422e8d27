package autograd

import (
	"math"
	"testing"

	"tgopt/internal/tensor"
)

// checkGrads numerically verifies dLoss/dParam for every parameter via
// central finite differences. loss must rebuild the whole forward pass
// from the current parameter tensors on each call.
func checkGrads(t *testing.T, params []*Value, loss func() *Value, eps, tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	l := loss()
	l.Backward()
	for pi, p := range params {
		g := p.Grad()
		if g == nil {
			t.Fatalf("param %d has no gradient", pi)
		}
		data := p.T.Data()
		for i := range data {
			orig := data[i]
			data[i] = orig + float32(eps)
			lp := float64(loss().T.Data()[0])
			data[i] = orig - float32(eps)
			lm := float64(loss().T.Data()[0])
			data[i] = orig
			fd := (lp - lm) / (2 * eps)
			ad := float64(g.Data()[i])
			if math.Abs(fd-ad) > tol*(1+math.Abs(fd)) {
				t.Fatalf("param %d elem %d: autograd %g vs finite-diff %g", pi, i, ad, fd)
			}
		}
	}
}

func TestBackwardNonScalarPanics(t *testing.T) {
	v := Param(tensor.Ones(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("non-scalar Backward did not panic")
		}
	}()
	v.Backward()
}

func TestConstReceivesNoGrad(t *testing.T) {
	c := Const(tensor.Ones(2, 2))
	p := Param(tensor.Ones(2))
	out := Sum(AddRowBias(c, p))
	out.Backward()
	if c.Grad() != nil {
		t.Fatal("const accumulated a gradient")
	}
	if p.Grad() == nil {
		t.Fatal("param missing gradient")
	}
	if c.RequiresGrad() || !p.RequiresGrad() {
		t.Fatal("RequiresGrad flags wrong")
	}
}

func TestBackwardOnPureConstGraphIsNoop(t *testing.T) {
	c := Const(tensor.Ones(1))
	out := Sum(c)
	out.Backward() // must not panic
	if out.Grad() != nil {
		t.Fatal("const graph accumulated gradients")
	}
}

func TestSumGradient(t *testing.T) {
	p := Param(tensor.FromSlice([]float32{1, 2, 3}, 3))
	Sum(p).Backward()
	for i := 0; i < 3; i++ {
		if p.Grad().Data()[i] != 1 {
			t.Fatalf("dSum/dp[%d] = %v", i, p.Grad().Data()[i])
		}
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	p := Param(tensor.Ones(2))
	Sum(p).Backward()
	Sum(p).Backward()
	if p.Grad().Data()[0] != 2 {
		t.Fatalf("gradient did not accumulate: %v", p.Grad().Data()[0])
	}
	p.ZeroGrad()
	if p.Grad() != nil {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestMatMulTGradient(t *testing.T) {
	r := tensor.NewRNG(1)
	x := Param(tensor.Randn(r, 3, 4))
	w := Param(tensor.Randn(r, 2, 4))
	checkGrads(t, []*Value{x, w}, func() *Value {
		return Sum(ReLU(MatMulT(x, w)))
	}, 1e-2, 2e-2)
}

func TestAddRowBiasGradient(t *testing.T) {
	r := tensor.NewRNG(2)
	x := Param(tensor.Randn(r, 3, 4))
	b := Param(tensor.Randn(r, 4))
	// Project through a fixed matrix so the gradient is nontrivial while
	// staying smooth (ReLU kinks break finite differences).
	proj := Const(tensor.Randn(r, 2, 4))
	checkGrads(t, []*Value{x, b}, func() *Value {
		return Sum(MatMulT(AddRowBias(x, b), proj))
	}, 1e-2, 2e-2)
}

func TestLinearNilBias(t *testing.T) {
	r := tensor.NewRNG(3)
	x := Param(tensor.Randn(r, 2, 3))
	w := Param(tensor.Randn(r, 2, 3))
	out := Linear(x, w, nil)
	if out.T.Dim(1) != 2 {
		t.Fatalf("Linear shape %v", out.T.Shape())
	}
}

func TestConcatSliceGradients(t *testing.T) {
	r := tensor.NewRNG(4)
	a := Param(tensor.Randn(r, 3, 2))
	b := Param(tensor.Randn(r, 3, 3))
	checkGrads(t, []*Value{a, b}, func() *Value {
		cat := ConcatCols(a, b)
		return Sum(ReLU(SliceRows(cat, 1, 3)))
	}, 1e-2, 2e-2)
}

func TestGatherRowsGradientWithDuplicates(t *testing.T) {
	r := tensor.NewRNG(5)
	x := Param(tensor.Randn(r, 4, 3))
	idx := []int32{2, 0, 2, 2}
	proj := Const(tensor.Randn(r, 2, 3))
	checkGrads(t, []*Value{x}, func() *Value {
		return Sum(MatMulT(GatherRows(x, idx), proj))
	}, 1e-2, 2e-2)
}

func TestCosAffineForwardMatchesEncoder(t *testing.T) {
	r := tensor.NewRNG(7)
	omega := Param(tensor.Randn(r, 6))
	phi := Param(tensor.Randn(r, 6))
	dts := []float64{0, 1.5, 100}
	out := CosAffine(omega, phi, dts)
	for i, dt := range dts {
		for j := 0; j < 6; j++ {
			want := math.Cos(dt*float64(omega.T.At(j)) + float64(phi.T.At(j)))
			if math.Abs(float64(out.T.At(i, j))-want) > 1e-6 {
				t.Fatalf("CosAffine(%v)[%d] = %v, want %v", dt, j, out.T.At(i, j), want)
			}
		}
	}
}

func TestCosAffineGradient(t *testing.T) {
	r := tensor.NewRNG(8)
	omega := Param(tensor.Randn(r, 4))
	phi := Param(tensor.Randn(r, 4))
	dts := []float64{0.3, 1.2, 2.5}
	checkGrads(t, []*Value{omega, phi}, func() *Value {
		return Sum(CosAffine(omega, phi, dts))
	}, 1e-3, 2e-2)
}

func TestAttendForwardMatchesManualSoftmax(t *testing.T) {
	r := tensor.NewRNG(9)
	n, slots, e, heads := 2, 3, 4, 2
	q := Param(tensor.Randn(r, n, e))
	k := Param(tensor.Randn(r, n*slots, e))
	v := Param(tensor.Randn(r, n*slots, e))
	mask := []bool{true, true, false, true, true, true}
	out := Attend(q, k, v, slots, mask, heads)
	hd := e / heads
	scale := 1 / math.Sqrt(float64(hd))
	for i := 0; i < n; i++ {
		for h := 0; h < heads; h++ {
			var exps [3]float64
			var sum float64
			for j := 0; j < slots; j++ {
				if !mask[i*slots+j] {
					continue
				}
				var s float64
				for d := 0; d < hd; d++ {
					s += float64(q.T.At(i, h*hd+d)) * float64(k.T.At(i*slots+j, h*hd+d))
				}
				exps[j] = math.Exp(s * scale)
				sum += exps[j]
			}
			for d := 0; d < hd; d++ {
				var want float64
				for j := 0; j < slots; j++ {
					if !mask[i*slots+j] {
						continue
					}
					want += exps[j] / sum * float64(v.T.At(i*slots+j, h*hd+d))
				}
				if math.Abs(float64(out.T.At(i, h*hd+d))-want) > 1e-5 {
					t.Fatalf("Attend(%d,%d,%d) = %v, want %v", i, h, d, out.T.At(i, h*hd+d), want)
				}
			}
		}
	}
}

func TestAttendGradient(t *testing.T) {
	r := tensor.NewRNG(10)
	n, slots, e, heads := 2, 3, 4, 2
	q := Param(tensor.Randn(r, n, e))
	k := Param(tensor.Randn(r, n*slots, e))
	v := Param(tensor.Randn(r, n*slots, e))
	mask := []bool{true, false, true, true, true, true}
	checkGrads(t, []*Value{q, k, v}, func() *Value {
		return Sum(ReLU(Attend(q, k, v, slots, mask, heads)))
	}, 1e-3, 3e-2)
}

func TestAttendFullyMaskedTarget(t *testing.T) {
	r := tensor.NewRNG(11)
	q := Param(tensor.Randn(r, 1, 4))
	k := Param(tensor.Randn(r, 2, 4))
	v := Param(tensor.Randn(r, 2, 4))
	out := Attend(q, k, v, 2, []bool{false, false}, 2)
	for _, x := range out.T.Data() {
		if x != 0 {
			t.Fatal("fully masked target produced nonzero context")
		}
	}
	Sum(out).Backward()
	// Gradients must exist (zero) without NaN.
	if q.Grad().HasNaN() || k.Grad().HasNaN() || v.Grad().HasNaN() {
		t.Fatal("masked attention backward produced NaN")
	}
}

func TestBCEWithLogitsGradient(t *testing.T) {
	r := tensor.NewRNG(12)
	x := Param(tensor.Randn(r, 6))
	labels := []float32{1, 0, 1, 0, 1, 1}
	checkGrads(t, []*Value{x}, func() *Value {
		return BCEWithLogits(x, labels)
	}, 1e-3, 1e-2)
}

func TestEndToEndNetworkGradient(t *testing.T) {
	// A miniature of the real training graph: gather → linear → ReLU →
	// concat → linear → BCE.
	r := tensor.NewRNG(13)
	table := Param(tensor.Randn(r, 5, 3))
	w1 := Param(tensor.Randn(r, 4, 3))
	b1 := Param(tensor.Randn(r, 4))
	w2 := Param(tensor.Randn(r, 1, 8))
	b2 := Param(tensor.Randn(r, 1))
	idx := []int32{0, 2, 2, 4}
	labels := []float32{1, 0, 1, 0}
	loss := func() *Value {
		x := GatherRows(table, idx)
		h := ReLU(Linear(x, w1, b1))
		h2 := ConcatCols(h, h)
		logits := Linear(h2, w2, b2)
		return BCEWithLogits(logits, labels)
	}
	checkGrads(t, []*Value{table, w1, b1, w2, b2}, loss, 1e-3, 2e-2)
}

func TestTrainingReducesLoss(t *testing.T) {
	// Tiny logistic regression trained with raw SGD on the tape: loss
	// must fall monotonically-ish and substantially.
	r := tensor.NewRNG(14)
	n := 64
	x := tensor.Randn(r, n, 4)
	labels := make([]float32, n)
	for i := 0; i < n; i++ {
		// Separable rule: label = x0 + x1 > 0.
		if x.At(i, 0)+x.At(i, 1) > 0 {
			labels[i] = 1
		}
	}
	w := Param(tensor.Randn(r, 1, 4))
	b := Param(tensor.New(1))
	var first, last float64
	for step := 0; step < 200; step++ {
		w.ZeroGrad()
		b.ZeroGrad()
		loss := BCEWithLogits(Linear(Const(x), w, b), labels)
		if step == 0 {
			first = float64(loss.T.Data()[0])
		}
		last = float64(loss.T.Data()[0])
		loss.Backward()
		for i := range w.T.Data() {
			w.T.Data()[i] -= 0.5 * w.Grad().Data()[i]
		}
		b.T.Data()[0] -= 0.5 * b.Grad().Data()[0]
	}
	if last > first/3 {
		t.Fatalf("loss did not drop: first=%v last=%v", first, last)
	}
}

func TestDropoutForwardStatistics(t *testing.T) {
	r := tensor.NewRNG(20)
	x := Param(tensor.Ones(1, 10000))
	p := 0.3
	out := Dropout(x, p, r)
	zeros, kept := 0, 0
	var sum float64
	for _, v := range out.T.Data() {
		if v == 0 {
			zeros++
		} else {
			kept++
			sum += float64(v)
		}
	}
	frac := float64(zeros) / 10000
	if frac < p-0.03 || frac > p+0.03 {
		t.Fatalf("zeroed fraction %v, want ~%v", frac, p)
	}
	// Inverted scaling keeps the expectation: survivors are 1/(1-p).
	want := 1 / (1 - p)
	if kept > 0 {
		mean := sum / float64(kept)
		if mean < want-1e-3 || mean > want+1e-3 {
			t.Fatalf("survivor value %v, want %v", mean, want)
		}
	}
	// Overall expectation ≈ 1.
	if total := tensor.Mean(out.T); total < 0.95 || total > 1.05 {
		t.Fatalf("post-dropout mean %v, want ~1", total)
	}
}

func TestDropoutBackwardMasksGradient(t *testing.T) {
	r := tensor.NewRNG(21)
	x := Param(tensor.Ones(1, 200))
	out := Dropout(x, 0.5, r)
	Sum(out).Backward()
	for i, v := range out.T.Data() {
		g := x.Grad().Data()[i]
		if v == 0 && g != 0 {
			t.Fatalf("dropped element %d received gradient %v", i, g)
		}
		if v != 0 && g != 2 { // 1/(1-0.5)
			t.Fatalf("kept element %d gradient %v, want 2", i, g)
		}
	}
}

func TestDropoutDisabledPassThrough(t *testing.T) {
	r := tensor.NewRNG(22)
	x := Param(tensor.Ones(2, 2))
	if Dropout(x, 0, r) != x || Dropout(x, 1, r) != x || Dropout(x, -0.5, r) != x {
		t.Fatal("out-of-range p did not pass through")
	}
}

// ZeroGrad clears the accumulated gradient.
func (v *Value) ZeroGrad() { v.grad = nil }

// RequiresGrad reports whether gradients flow into this value.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// Sum reduces to a scalar.
func Sum(x *Value) *Value {
	out := tensor.Scalar(float32(tensor.Sum(x.T)))
	o := newOp(out, nil, x)
	if o.requiresGrad {
		o.back = func() {
			g := x.ensureGrad()
			s := o.grad.Data()[0]
			for i := range g.Data() {
				g.Data()[i] += s
			}
		}
	}
	return o
}

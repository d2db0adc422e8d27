package nn

import (
	"math"
	"testing"
	"testing/quick"
	"tgopt/internal/parallel"

	"tgopt/internal/tensor"
)

func TestTimeEncoderZeroDeltaIsAllOnes(t *testing.T) {
	te := NewTimeEncoder(16)
	v := te.EncodeScalar(0)
	for i, x := range v.Data() {
		if math.Abs(float64(x)-1) > 1e-6 {
			t.Fatalf("Φ(0)[%d] = %v, want 1 (cos(0))", i, x)
		}
	}
}

func TestTimeEncoderMatchesFormula(t *testing.T) {
	te := NewTimeEncoder(8)
	dts := []float64{0, 1, 3.5, 1e6}
	enc := te.Encode(dts)
	for i, dt := range dts {
		for j := 0; j < 8; j++ {
			want := math.Cos(dt*float64(te.Omega.At(j)) + float64(te.Phi.At(j)))
			if math.Abs(float64(enc.At(i, j))-want) > 1e-6 {
				t.Fatalf("Φ(%v)[%d] = %v, want %v", dt, j, enc.At(i, j), want)
			}
		}
	}
}

func TestTimeEncoderFrequencySpread(t *testing.T) {
	te := NewTimeEncoder(10)
	if te.Omega.At(0) != 1 {
		t.Fatalf("ω_0 = %v, want 1", te.Omega.At(0))
	}
	last := float64(te.Omega.At(9))
	if math.Abs(last-1e-9) > 1e-12 {
		t.Fatalf("ω_last = %v, want 1e-9", last)
	}
	for j := 1; j < 10; j++ {
		if te.Omega.At(j) >= te.Omega.At(j-1) {
			t.Fatal("frequencies not strictly decreasing")
		}
	}
}

func TestTimeEncoderBounded(t *testing.T) {
	te := NewTimeEncoder(32)
	prop := func(dtRaw int32) bool {
		dt := math.Abs(float64(dtRaw))
		v := te.EncodeScalar(dt)
		for _, x := range v.Data() {
			if x < -1 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeEncoderDim1(t *testing.T) {
	te := NewTimeEncoder(1)
	if te.Dim() != 1 || te.Omega.At(0) != 1 {
		t.Fatalf("d=1 encoder wrong: dim=%d ω=%v", te.Dim(), te.Omega.At(0))
	}
}

func TestLinearShapesAndParams(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear(r, 6, 4, true)
	if l.In() != 6 || l.Out() != 4 {
		t.Fatalf("In/Out = %d/%d", l.In(), l.Out())
	}
	x := tensor.Rand(r, 3, 6)
	y := l.Forward(x)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("Forward shape %v", y.Shape())
	}
	if len(l.Params()) != 2 {
		t.Fatalf("Params len %d, want 2", len(l.Params()))
	}
	nb := NewLinear(r, 6, 4, false)
	if len(nb.Params()) != 1 || nb.B != nil {
		t.Fatal("no-bias linear has a bias")
	}
}

func TestMergeLayerForward(t *testing.T) {
	r := tensor.NewRNG(2)
	m := NewMergeLayer(r, 5, 3, 7, 2)
	a := tensor.Rand(r, 4, 5)
	b := tensor.Rand(r, 4, 3)
	out := m.Forward(a, b)
	if out.Dim(0) != 4 || out.Dim(1) != 2 {
		t.Fatalf("MergeLayer output shape %v", out.Shape())
	}
	// Manual recomputation.
	x := tensor.ConcatCols(a, b)
	want := m.FC2.Forward(tensor.ReLU(m.FC1.Forward(x)))
	if !out.AllClose(want, 1e-6) {
		t.Fatal("MergeLayer differs from manual composition")
	}
	if len(m.Params()) != 4 {
		t.Fatalf("MergeLayer params %d, want 4", len(m.Params()))
	}
}

func newAttn(t *testing.T, heads, qd, kd int) *TemporalAttention {
	t.Helper()
	return NewTemporalAttention(tensor.NewRNG(3), heads, qd, kd)
}

func TestAttentionOutputShape(t *testing.T) {
	a := newAttn(t, 2, 8, 10)
	r := tensor.NewRNG(4)
	n, k := 5, 3
	q := tensor.Rand(r, n, 8)
	kv := tensor.Rand(r, n*k, 10)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = true
	}
	out, w := a.Forward(q, kv, k, mask, true)
	if out.Dim(0) != n || out.Dim(1) != 8 {
		t.Fatalf("attention output shape %v", out.Shape())
	}
	if w.Dim(0) != n || w.Dim(1) != 2 || w.Dim(2) != k {
		t.Fatalf("weights shape %v", w.Shape())
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	a := newAttn(t, 2, 8, 10)
	r := tensor.NewRNG(5)
	n, k := 6, 4
	q := tensor.Randn(r, n, 8)
	kv := tensor.Randn(r, n*k, 10)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = r.Float64() > 0.3
	}
	_, w := a.Forward(q, kv, k, mask, true)
	for i := 0; i < n; i++ {
		anyValid := false
		for j := 0; j < k; j++ {
			if mask[i*k+j] {
				anyValid = true
			}
		}
		for h := 0; h < 2; h++ {
			var sum float64
			for j := 0; j < k; j++ {
				alpha := float64(w.At(i, h, j))
				if alpha < 0 {
					t.Fatalf("negative attention weight %v", alpha)
				}
				if !mask[i*k+j] && alpha != 0 {
					t.Fatalf("masked slot (%d,%d,%d) has weight %v", i, h, j, alpha)
				}
				sum += alpha
			}
			if anyValid && math.Abs(sum-1) > 1e-5 {
				t.Fatalf("weights for target %d head %d sum to %v", i, h, sum)
			}
			if !anyValid && sum != 0 {
				t.Fatalf("neighbor-less target %d has nonzero weights", i)
			}
		}
	}
}

func TestAttentionNoNeighborsGivesBiasOnlyOutput(t *testing.T) {
	a := newAttn(t, 2, 8, 10)
	r := tensor.NewRNG(6)
	q := tensor.Randn(r, 1, 8)
	kv := tensor.Randn(r, 3, 10)
	mask := []bool{false, false, false}
	out, _ := a.Forward(q, kv, 3, mask, false)
	// Zero context through WO leaves only the output bias.
	want := a.WO.Forward(tensor.New(1, 8))
	if !out.AllClose(want, 1e-6) {
		t.Fatal("fully masked target output is not the WO bias")
	}
}

func TestAttentionMaskedSlotsDoNotInfluenceOutput(t *testing.T) {
	a := newAttn(t, 2, 8, 10)
	r := tensor.NewRNG(7)
	n, k := 3, 4
	q := tensor.Randn(r, n, 8)
	kv := tensor.Randn(r, n*k, 10)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%k < 2 // slots 2,3 masked
	}
	out1, _ := a.Forward(q, kv, k, mask, false)
	// Poison the masked rows: a padded slot is never read, so not one
	// output bit may change (NaN would spread through any arithmetic).
	kv2 := kv.Clone()
	nan := float32(math.NaN())
	for i := 0; i < n*k; i++ {
		if !mask[i] {
			for j := 0; j < 10; j++ {
				kv2.Set(nan, i, j)
			}
		}
	}
	out2, _ := a.Forward(q, kv2, k, mask, false)
	if at := sameBits(out1.Data(), out2.Data()); at >= 0 {
		t.Fatalf("masked slot contents leaked into attention output (element %d)", at)
	}
}

func TestAttentionSingleVsMultiHeadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible qDim/heads did not panic")
		}
	}()
	NewTemporalAttention(tensor.NewRNG(8), 3, 8, 10)
}

func TestAttentionParamsCount(t *testing.T) {
	a := newAttn(t, 2, 8, 10)
	if len(a.Params()) != 8 {
		t.Fatalf("attention params %d, want 8 (4 layers × W,b)", len(a.Params()))
	}
}

func TestAttentionParallelMatchesSerial(t *testing.T) {
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	a := newAttn(t, 2, 16, 20)
	r := tensor.NewRNG(9)
	n, k := 600, 5 // n above MinParallelWork triggers the parallel path
	q := tensor.Randn(r, n, 16)
	kv := tensor.Randn(r, n*k, 20)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = r.Float64() > 0.2
	}
	full, _ := a.Forward(q, kv, k, mask, false)
	// Compare each target against an independent single-target call.
	for _, i := range []int{0, 123, 599} {
		qi := tensor.FromSlice(q.Row(i), 1, 16)
		kvi := tensor.FromSlice(kv.Data()[i*k*20:(i+1)*k*20], k, 20)
		oi, _ := a.Forward(qi, kvi, k, mask[i*k:(i+1)*k], false)
		got := tensor.FromSlice(full.Row(i), 1, 16)
		if !got.AllClose(oi, 1e-5) {
			t.Fatalf("parallel target %d differs from serial: %g", i, got.MaxAbsDiff(oi))
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(p) = ||p - c||² — Adam should approach c.
	p := tensor.FromSlice([]float32{5, -3, 2}, 3)
	c := []float32{1, 2, 3}
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	for it := 0; it < 500; it++ {
		g := tensor.New(3)
		for i := range c {
			g.Data()[i] = 2 * (p.Data()[i] - c[i])
		}
		opt.Step([]*tensor.Tensor{g})
	}
	for i := range c {
		if math.Abs(float64(p.Data()[i]-c[i])) > 1e-2 {
			t.Fatalf("Adam did not converge: p[%d]=%v want %v", i, p.Data()[i], c[i])
		}
	}
	if opt.StepCount() != 500 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	p := tensor.FromSlice([]float32{1}, 1)
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	opt.Step([]*tensor.Tensor{nil})
	if p.Data()[0] != 1 {
		t.Fatal("nil gradient mutated the parameter")
	}
}

func TestAveragePrecisionPerfectAndRandom(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if ap := AveragePrecision(scores, labels); ap != 1 {
		t.Fatalf("perfect AP = %v, want 1", ap)
	}
	inverted := []bool{false, false, true, true}
	if ap := AveragePrecision(scores, inverted); ap >= 0.6 {
		t.Fatalf("inverted AP = %v, want low", ap)
	}
	if AveragePrecision(nil, nil) != 0 {
		t.Fatal("empty AP should be 0")
	}
	if AveragePrecision([]float64{1}, []bool{false}) != 0 {
		t.Fatal("no-positives AP should be 0")
	}
}

func TestAccuracy(t *testing.T) {
	if a := Accuracy([]float64{2, -1, 3, -4}, []bool{true, false, false, false}); a != 0.75 {
		t.Fatalf("Accuracy = %v, want 0.75", a)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty Accuracy should be 0")
	}
}

// Forward applies the layer to x of shape (n, in), producing (n, out).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return l.ForwardWith(nil, x)
}

package nn

import (
	"testing"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// maxAbs returns the largest |v| in t.
func maxAbs(t *tensor.Tensor) float32 {
	var m float32
	for _, v := range t.Data() {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// relTol bounds the allowed deviation of a quantized forward pass from
// its float32 twin: a fraction of the float output's dynamic range plus
// a small absolute floor for near-zero outputs.
func relTol(ref *tensor.Tensor, frac float32) float64 {
	return float64(frac*maxAbs(ref)) + 1e-3
}

func TestQuantLinearCloseToFloatLayer(t *testing.T) {
	r := tensor.NewRNG(61)
	lin := NewLinear(r, 48, 24, true)
	ql := QuantizeLinear(lin)
	if ql.In() != 48 || ql.Out() != 24 {
		t.Fatalf("quant linear dims %dx%d, want 48x24", ql.In(), ql.Out())
	}
	x := tensor.Randn(r, 32, 48)
	want := lin.ForwardWith(nil, x)
	got := ql.ForwardWith(nil, x)
	if d := got.MaxAbsDiff(want); d > relTol(want, 0.05) {
		t.Errorf("QuantLinear diff %g exceeds tol %g", d, relTol(want, 0.05))
	}
}

func TestQuantMergeLayerCloseToFloat(t *testing.T) {
	r := tensor.NewRNG(62)
	m := NewMergeLayer(r, 16, 16, 40, 16)
	qm := QuantizeMergeLayer(m)
	a := tensor.Randn(r, 20, 16)
	b := tensor.Randn(r, 20, 16)
	want := m.ForwardWith(nil, a, b)
	got := qm.ForwardWith(nil, a, b)
	// Two stacked quantized matmuls with a ReLU between: errors compound,
	// so the tolerance is looser than the single-layer case.
	if d := got.MaxAbsDiff(want); d > relTol(want, 0.1) {
		t.Errorf("QuantMergeLayer diff %g exceeds tol %g", d, relTol(want, 0.1))
	}
}

func TestQuantAttentionCloseToFloat(t *testing.T) {
	r := tensor.NewRNG(63)
	const n, k, qDim, kDim = 12, 7, 16, 24
	attn := NewTemporalAttention(r, 2, qDim, kDim)
	qa := QuantizeAttention(attn)
	q := tensor.Randn(r, n, qDim)
	kv := tensor.Randn(r, n*k, kDim)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%3 != 0
	}
	want := attn.ForwardWith(nil, q, kv, k, mask)
	got := qa.ForwardWith(nil, q, kv, k, mask)
	// Four quantized projections around an exact softmax core. The
	// softmax re-normalizes, which damps score perturbations, but the
	// value and output projections contribute directly.
	if d := got.MaxAbsDiff(want); d > relTol(want, 0.15) {
		t.Errorf("QuantTemporalAttention diff %g exceeds tol %g", d, relTol(want, 0.15))
	}
}

func TestQuantAttentionZeroNeighborRows(t *testing.T) {
	r := tensor.NewRNG(64)
	const n, k, qDim, kDim = 4, 3, 8, 10
	attn := NewTemporalAttention(r, 2, qDim, kDim)
	qa := QuantizeAttention(attn)
	q := tensor.Randn(r, n, qDim)
	kv := tensor.Randn(r, n*k, kDim)
	mask := make([]bool, n*k) // all padded: every target is neighbor-less
	want := attn.ForwardWith(nil, q, kv, k, mask)
	got := qa.ForwardWith(nil, q, kv, k, mask)
	// Zero context through WO: outputs are both exactly WO's bias rows.
	if d := got.MaxAbsDiff(want); d > relTol(want, 0.02) {
		t.Errorf("masked-out quant attention diff %g", d)
	}
}

func TestQuantAttentionParallelMatchesSerial(t *testing.T) {
	r := tensor.NewRNG(65)
	const n, k, qDim, kDim = 64, 5, 16, 24
	attn := NewTemporalAttention(r, 2, qDim, kDim)
	qa := QuantizeAttention(attn)
	q := tensor.Randn(r, n, qDim)
	kv := tensor.Randn(r, n*k, kDim)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%4 != 1
	}
	par := qa.ForwardWith(nil, q, kv, k, mask)
	prev := parallel.SetDegree(1)
	ser := qa.ForwardWith(nil, q, kv, k, mask)
	parallel.SetDegree(prev)
	if d := par.MaxAbsDiff(ser); d != 0 {
		t.Errorf("parallel vs serial quant attention: diff %g", d)
	}
}

// TestQuantForwardWithSteadyStateAllocs is the int8 twin of
// TestForwardWithSteadyStateAllocs: the quantized arena forward passes
// must be allocation-free once the arena slots are warm.
func TestQuantForwardWithSteadyStateAllocs(t *testing.T) {
	old := parallel.Degree()
	parallel.SetDegree(1)
	defer parallel.SetDegree(old)

	r := tensor.NewRNG(66)
	const n, k, qDim, kDim = 8, 5, 16, 24
	attn := QuantizeAttention(NewTemporalAttention(r, 2, qDim, kDim))
	merge := QuantizeMergeLayer(NewMergeLayer(r, qDim, qDim, 32, qDim))
	lin := QuantizeLinear(NewLinear(r, qDim, qDim, true))
	q := tensor.Randn(r, n, qDim)
	kv := tensor.Randn(r, n*k, kDim)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%3 != 0
	}
	ar := tensor.NewArena()

	cases := []struct {
		name string
		fn   func()
	}{
		{"quant_attention", func() {
			ar.Reset()
			attn.ForwardWith(ar, q, kv, k, mask)
		}},
		{"quant_merge_linear", func() {
			ar.Reset()
			h := merge.ForwardWith(ar, q, q)
			lin.ForwardWith(ar, h)
		}},
	}
	for _, tc := range cases {
		tc.fn() // warmup: grow arena slots
		if allocs := testing.AllocsPerRun(10, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

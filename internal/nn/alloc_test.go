package nn

import (
	"testing"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// TestForwardWithSteadyStateAllocs pins the zero-allocation contract of
// the arena forward passes: once a warmup call has grown the arena's
// slots, repeating the same shapes must not touch the heap.
// AllocsPerRun counts allocations on every goroutine, so the test runs
// serially.
func TestForwardWithSteadyStateAllocs(t *testing.T) {
	old := parallel.Degree()
	parallel.SetDegree(1)
	defer parallel.SetDegree(old)

	r := tensor.NewRNG(11)
	// Target 0 is all padded, so both exits of the attention row kernel
	// run.
	const n, k, qDim, kDim = 8, 5, 16, 24
	attn := NewTemporalAttention(r, 2, qDim, kDim)
	merge := NewMergeLayer(r, attn.EmbedDim, qDim, 32, qDim)
	lin := NewLinear(r, qDim, qDim, true)
	q := tensor.Randn(r, n, qDim)
	kv := tensor.Randn(r, n*k, kDim)
	mask := make([]bool, n*k)
	for i := k; i < len(mask); i++ {
		mask[i] = i%3 != 0
	}
	ar := tensor.NewArena()

	cases := []struct {
		name string
		fn   func()
	}{
		{"attention", func() {
			ar.Reset()
			attn.ForwardWith(ar, q, kv, k, mask)
		}},
		{"attention_batched", func() {
			ar.Reset()
			attn.ForwardBatchedWith(ar, q, kv, k, mask)
		}},
		{"merge_linear", func() {
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

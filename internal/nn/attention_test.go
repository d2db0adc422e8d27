package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// sameBits reports the first index at which a and b differ bitwise, or
// -1. NaNs with equal payloads compare equal, unlike ==.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// edgeMask returns a mask whose first three targets are the edge cases
// — all padded, exactly one valid slot, all valid — and the rest random.
func edgeMask(r *tensor.RNG, n, k int) []bool {
	mask := make([]bool, n*k)
	for i := 3 * k; i < n*k; i++ {
		mask[i] = r.Float64() > 0.3
	}
	mask[1*k+k/2] = true
	for j := 0; j < k; j++ {
		mask[2*k+j] = true
	}
	return mask
}

// TestAbsorbedMatchesProjectedReference holds the absorbed kernel to
// the explicit-projection reference (ForwardBatched projects every kv
// row through WK and WV) and checks the attention weights it reports.
func TestAbsorbedMatchesProjectedReference(t *testing.T) {
	// Head widths 12, 6 and 3: the four-row blocks of addRowsScaled and
	// rowDots alone, blocks plus remainder, and remainder alone.
	const n, qDim, kDim = 13, 12, 20
	for _, heads := range []int{1, 2, 4} {
		for _, k := range []int{1, 3, 10} {
			t.Run(fmt.Sprintf("heads%d_k%d", heads, k), func(t *testing.T) {
				r := tensor.NewRNG(uint64(100*heads + k))
				a := NewTemporalAttention(r, heads, qDim, kDim)
				for _, l := range []*Linear{a.WK, a.WV} { // Xavier init leaves biases at 0
					copy(l.B.Data(), tensor.Randn(r, qDim).Data())
				}
				q := tensor.Randn(r, n, qDim)
				kv := tensor.Randn(r, n*k, kDim)
				mask := edgeMask(r, n, k)

				got, w := a.Forward(q, kv, k, mask, true)
				want := a.ForwardBatched(q, kv, k, mask)
				if d := got.MaxAbsDiff(want); d > 1e-5 {
					t.Fatalf("absorbed vs projected: max diff %g", d)
				}
				for i := 0; i < n; i++ {
					valid := 0
					for _, ok := range mask[i*k : (i+1)*k] {
						if ok {
							valid++
						}
					}
					for h := 0; h < heads; h++ {
						var sum float64
						for j := 0; j < k; j++ {
							alpha := w.At(i, h, j)
							if !mask[i*k+j] && alpha != 0 {
								t.Fatalf("padded slot (%d,%d,%d) has weight %v", i, h, j, alpha)
							}
							sum += float64(alpha)
						}
						if valid > 0 && math.Abs(sum-1) > 1e-5 {
							t.Fatalf("target %d head %d: weights sum to %v", i, h, sum)
						}
						if valid == 0 && sum != 0 {
							t.Fatalf("all-padded target %d has weights", i)
						}
					}
				}
			})
		}
	}
}

// TestAttentionRowIndependenceBitwise pins what the engine's bitwise
// contract rests on: a target's output bits depend only on its own q
// row, kv rows and mask — not on where it sits in the batch, how long
// the batch is, or the parallel row split.
func TestAttentionRowIndependenceBitwise(t *testing.T) {
	const heads, qDim, kDim, k = 2, 16, 20, 5
	r := tensor.NewRNG(41)
	a := NewTemporalAttention(r, heads, qDim, kDim)
	copy(a.WK.B.Data(), tensor.Randn(r, qDim).Data())
	copy(a.WV.B.Data(), tensor.Randn(r, qDim).Data())

	const pool = 2 * parallel.MinParallelWork
	q := tensor.Randn(r, pool, qDim)
	kv := tensor.Randn(r, pool*k, kDim)
	mask := edgeMask(r, pool, k)

	// alone[i] is target i computed as a batch of one.
	alone := make([][]float32, pool)
	for i := range alone {
		out, _ := a.Forward(
			tensor.FromSlice(q.Row(i), 1, qDim),
			tensor.FromSlice(kv.Data()[i*k*kDim:(i+1)*k*kDim], k, kDim),
			k, mask[i*k:(i+1)*k], false)
		alone[i] = out.Data()
	}

	// batch assembles the given pool targets, in that order.
	batch := func(ids []int) []float32 {
		bq := tensor.New(len(ids), qDim)
		bkv := tensor.New(len(ids)*k, kDim)
		bm := make([]bool, 0, len(ids)*k)
		for p, i := range ids {
			copy(bq.Row(p), q.Row(i))
			copy(bkv.Data()[p*k*kDim:(p+1)*k*kDim], kv.Data()[i*k*kDim:(i+1)*k*kDim])
			bm = append(bm, mask[i*k:(i+1)*k]...)
		}
		out, _ := a.Forward(bq, bkv, k, bm, false)
		return out.Data()
	}

	// Every position of every batch length 1..9, for an all-padded, a
	// one-slot and a dense target.
	for _, target := range []int{0, 1, 2, 7} {
		for n := 1; n <= 9; n++ {
			for pos := 0; pos < n; pos++ {
				ids := make([]int, n)
				for p := range ids {
					ids[p] = 10 + p
				}
				ids[pos] = target
				out := batch(ids)
				if at := sameBits(out[pos*qDim:(pos+1)*qDim], alone[target]); at >= 0 {
					t.Fatalf("target %d at position %d of %d differs from its solo bits (col %d)", target, pos, n, at)
				}
			}
		}
	}

	// Above the fan-out threshold: serial and two-way split agree with
	// each other and with every target's solo bits.
	all := make([]int, pool)
	for i := range all {
		all[i] = i
	}
	prev := parallel.SetDegree(1)
	defer parallel.SetDegree(prev)
	serial := batch(all)
	parallel.SetDegree(2)
	split := batch(all)
	if at := sameBits(serial, split); at >= 0 {
		t.Fatalf("degree 1 vs 2 differ at element %d", at)
	}
	for i := range alone {
		if at := sameBits(split[i*qDim:(i+1)*qDim], alone[i]); at >= 0 {
			t.Fatalf("target %d in the split batch differs from its solo bits (col %d)", i, at)
		}
	}
}

// TestAbsorbedRejectsMismatchedWidths: the kernel strides WK/WV by the
// widths of its inputs, so a kv or query of the wrong width must panic
// up front rather than read the wrong weight rows.
func TestAbsorbedRejectsMismatchedWidths(t *testing.T) {
	const heads, qDim, kDim, n, k = 2, 8, 12, 3, 2
	r := tensor.NewRNG(5)
	a := NewTemporalAttention(r, heads, qDim, kDim)
	mask := make([]bool, n*k)
	for name, f := range map[string]func(){
		"kv narrower than WK": func() {
			a.Forward(tensor.Randn(r, n, qDim), tensor.Randn(r, n*k, kDim-4), k, mask, false)
		},
		"kv wider than WK": func() {
			a.Forward(tensor.Randn(r, n, qDim), tensor.Randn(r, n*k, kDim+4), k, mask, false)
		},
		"projected query narrower than WK's output": func() {
			absorbedAttention(nil, a.WK, a.WV, heads, tensor.Randn(r, n, qDim-2), tensor.Randn(r, n*k, kDim), k, mask, nil)
		},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "nn: attention") {
					t.Errorf("%s: panic %q, want the kernel's width check", name, msg)
				}
			}()
			f()
		}()
	}
}

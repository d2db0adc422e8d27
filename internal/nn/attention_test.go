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

// ForwardBatched is the explicit-projection attention kernel: it
// projects every neighbor row through WK and WV and expresses scores
// and the weighted sum as batched matrix multiplications, the way a
// tensor-framework implementation (like the original PyTorch TGOpt)
// does. No inference path calls it. It is the reference the absorbed
// kernel of Forward is tested against (outputs agree within float
// tolerance) and its comparator in BenchmarkAbsorbedVsProjected
// (DESIGN.md §6.1).
func (a *TemporalAttention) ForwardBatched(q, kv *tensor.Tensor, k int, mask []bool) *tensor.Tensor {
	return a.ForwardBatchedWith(nil, q, kv, k, mask)
}

// ForwardBatchedWith is ForwardBatched with every intermediate and the
// output drawn from ar (heap when ar is nil). The result is
// invalidated by ar.Reset.
func (a *TemporalAttention) ForwardBatchedWith(ar *tensor.Arena, q, kv *tensor.Tensor, k int, mask []bool) *tensor.Tensor {
	n := q.Dim(0)
	if kv.Dim(0) != n*k {
		panic(fmt.Sprintf("nn: attention kv rows %d != n*k %d", kv.Dim(0), n*k))
	}
	if len(mask) != n*k {
		panic(fmt.Sprintf("nn: attention mask len %d != n*k %d", len(mask), n*k))
	}
	qp := a.WQ.ForwardWith(ar, q)
	kp := a.WK.ForwardWith(ar, kv)
	vp := a.WV.ForwardWith(ar, kv)
	h := a.Heads
	hd := a.EmbedDim / h
	scale := float32(1 / math.Sqrt(float64(hd)))

	// Repack into (n*h, 1, hd) queries and (n*h, hd, k) transposed keys.
	// Every element is overwritten below, so the uninitialized arena
	// tensors are safe.
	qb := ar.Tensor(n*h, 1, hd)
	kb := ar.Tensor(n*h, hd, k)
	vb := ar.Tensor(n*h, k, hd)
	for i := 0; i < n; i++ {
		for hh := 0; hh < h; hh++ {
			b := i*h + hh
			copy(qb.Data()[b*hd:(b+1)*hd], qp.Data()[i*a.EmbedDim+hh*hd:i*a.EmbedDim+(hh+1)*hd])
			for j := 0; j < k; j++ {
				p := i*k + j
				krow := kp.Data()[p*a.EmbedDim+hh*hd : p*a.EmbedDim+(hh+1)*hd]
				vrow := vp.Data()[p*a.EmbedDim+hh*hd : p*a.EmbedDim+(hh+1)*hd]
				for d := 0; d < hd; d++ {
					kb.Data()[b*hd*k+d*k+j] = krow[d]
				}
				copy(vb.Data()[b*k*hd+j*hd:b*k*hd+(j+1)*hd], vrow)
			}
		}
	}

	// scores: (n*h, 1, k) = qb × kb, then scale + masked softmax (the
	// softmax aliases its input; no extra alpha tensor).
	scores := ar.Tensor(n*h, 1, k)
	tensor.BatchedMatMulInto(qb, kb, scores)
	tensor.ScaleInPlace(scores, scale)
	smask := ar.Bools(n * h * k)
	for i := 0; i < n; i++ {
		for hh := 0; hh < h; hh++ {
			copy(smask[(i*h+hh)*k:(i*h+hh+1)*k], mask[i*k:(i+1)*k])
		}
	}
	tensor.MaskedSoftmaxLastDimInto(scores, smask, scores)

	// Context: (n*h, 1, hd) = α × vb, reassembled to (n, embed). The
	// masked softmax zeroes every padded slot, so α is genuinely sparse
	// for small neighborhoods — the zero-skipping kernel's home turf.
	ctxB := ar.Tensor(n*h, 1, hd)
	tensor.BatchedMatMulSparseInto(scores, vb, ctxB)
	ctx := ar.Tensor(n, a.EmbedDim)
	for i := 0; i < n; i++ {
		for hh := 0; hh < h; hh++ {
			b := i*h + hh
			copy(ctx.Data()[i*a.EmbedDim+hh*hd:i*a.EmbedDim+(hh+1)*hd], ctxB.Data()[b*hd:(b+1)*hd])
		}
	}
	return a.WO.ForwardWith(ar, ctx)
}

// BenchmarkAbsorbedVsProjected contrasts the absorbed attention kernel
// (K/V projections folded into the single query, DESIGN.md §6.1)
// against the batched-matmul formulation a tensor framework would use,
// which projects every neighbor row.
func BenchmarkAbsorbedVsProjected(b *testing.B) {
	r := tensor.NewRNG(9)
	attn := NewTemporalAttention(tensor.NewRNG(1), 2, 64, 96)
	n, k := 1024, 10
	q := tensor.Randn(r, n, 64)
	kv := tensor.Randn(r, n*k, 96)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%7 != 0
	}
	// The leaves under the absorbed core are whatever the process
	// dispatches to (DESIGN.md §6.3), named by tensor.Kernels():
	// "avx512" or "avx2" on amd64, "generic" when the benchmark is built
	// with -tags purego.
	b.Run("absorbed/"+tensor.Kernels(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attn.Forward(q, kv, k, mask, false)
		}
	})
	b.Run("batched-matmul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attn.ForwardBatched(q, kv, k, mask)
		}
	})
}

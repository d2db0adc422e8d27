package nn

import (
	"fmt"
	"math"

	"tgopt/internal/tensor"
)

// ForwardBatched is the explicit-projection attention kernel: it
// projects every neighbor row through WK and WV and expresses scores
// and the weighted sum as batched matrix multiplications, the way a
// tensor-framework implementation (like the original PyTorch TGOpt)
// does. No inference path calls it. It is the reference the absorbed
// kernel of Forward is tested against (outputs agree within float
// tolerance) and its comparator in BenchmarkAttentionKernels
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

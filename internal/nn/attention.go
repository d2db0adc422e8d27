package nn

import (
	"fmt"
	"math"
	"slices"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// TemporalAttention is the multi-head self-attention operator M of the
// paper (Eqs. 4–6): scaled dot-product attention where the single query
// per target is z_i(t) = h_i ‖ Φ(0) and the keys/values are
// z_j(t) = h_j ‖ e_ij ‖ Φ(t−t_j) over the k sampled temporal neighbors.
//
// The projection layout follows PyTorch's MultiheadAttention with
// distinct kdim/vdim: queries, keys and values are all projected to
// embedDim = qDim and split across heads.
type TemporalAttention struct {
	Heads    int
	EmbedDim int // = qDim; must be divisible by Heads
	QDim     int // node dim + time dim
	KDim     int // node dim + edge dim + time dim

	WQ, WK, WV *Linear // projections into embedDim
	WO         *Linear // output projection embedDim -> embedDim
}

// NewTemporalAttention constructs the attention operator. qDim must be
// divisible by heads.
func NewTemporalAttention(r *tensor.RNG, heads, qDim, kDim int) *TemporalAttention {
	if qDim%heads != 0 {
		panic(fmt.Sprintf("nn: attention qDim %d not divisible by heads %d", qDim, heads))
	}
	return &TemporalAttention{
		Heads:    heads,
		EmbedDim: qDim,
		QDim:     qDim,
		KDim:     kDim,
		WQ:       NewLinear(r, qDim, qDim, true),
		WK:       NewLinear(r, kDim, qDim, true),
		WV:       NewLinear(r, kDim, qDim, true),
		WO:       NewLinear(r, qDim, qDim, true),
	}
}

// Forward computes attention for n targets with k neighbor slots each.
//
//	q:    (n, qDim)   one query row per target
//	kv:   (n*k, kDim) flattened neighbor messages, row i*k+j is slot j of
//	      target i (keys and values coincide in TGAT)
//	mask: len n*k, false marks padded slots
//
// It returns (n, embedDim) and, optionally, the attention weights
// (n, heads, k) when wantWeights is set (used by tests and diagnostics).
// Targets with no valid neighbors receive a zero attention output,
// matching the baseline's masked-softmax behavior.
func (a *TemporalAttention) Forward(q, kv *tensor.Tensor, k int, mask []bool, wantWeights bool) (*tensor.Tensor, *tensor.Tensor) {
	return a.forward(nil, q, kv, k, mask, wantWeights)
}

// ForwardWith is Forward without the optional attention weights, with
// every intermediate and the output drawn from ar (heap when ar is
// nil). The result is invalidated by ar.Reset.
func (a *TemporalAttention) ForwardWith(ar *tensor.Arena, q, kv *tensor.Tensor, k int, mask []bool) *tensor.Tensor {
	out, _ := a.forward(ar, q, kv, k, mask, false)
	return out
}

func (a *TemporalAttention) forward(ar *tensor.Arena, q, kv *tensor.Tensor, k int, mask []bool, wantWeights bool) (*tensor.Tensor, *tensor.Tensor) {
	var weights *tensor.Tensor
	if wantWeights {
		weights = tensor.New(q.Dim(0), a.Heads, k) // diagnostics path: heap is fine
	}
	qp := a.WQ.ForwardWith(ar, q) // (n, embed)
	ctx := absorbedAttention(ar, a.WK, a.WV, a.Heads, qp, kv, k, mask, weights)
	return a.WO.ForwardWith(ar, ctx), weights
}

// absorbedAttention is the attention core of forward: given the
// projected queries qp (n, E) and the raw neighbor messages kv
// (n*k, KDim) it returns the per-head context (n, E) that
// feeds WO, without ever projecting a kv row (DESIGN.md §6). With one
// query per target the K/V projections fold into the query side. Per
// target i and head h (rows h·hd..(h+1)·hd of WK, WV):
//
//	q̃_h = WK_hᵀ·qp_h        c_h = qp_h·bK_h
//	s_j  = scale·(q̃_h·z_j + c_h)         valid slots only
//	α    = softmax(s)
//	z̄_h = Σ_j α_j z_j                     valid slots only
//	ctx_h = WV_h·z̄_h + bV_h               (Σα = 1: the bias enters once)
//
// A target without a valid slot gets a zero context and reads none of
// its kv rows. weights, when non-nil, is (n, heads, k) and receives α,
// with zeros on padded slots.
//
// Every output element is a fixed-order sum over the target's own qp
// row, kv rows and mask: the parallel row split decides only when a
// target is computed, never in which order its terms are added, so a
// target's bits do not depend on the batch around it.
func absorbedAttention(ar *tensor.Arena, wk, wv *Linear, heads int, qp, kv *tensor.Tensor, k int, mask []bool, weights *tensor.Tensor) *tensor.Tensor {
	n, e := qp.Dim(0), qp.Dim(1)
	kDim := kv.Dim(1)
	if kv.Dim(0) != n*k {
		panic(fmt.Sprintf("nn: attention kv rows %d != n*k %d", kv.Dim(0), n*k))
	}
	if len(mask) != n*k {
		panic(fmt.Sprintf("nn: attention mask len %d != n*k %d", len(mask), n*k))
	}
	c := newAttnCore(wk, wv, tensor.PackLinear(ar, wv.W), heads, e, k, kDim)
	ctx := ar.Tensor(n, e) // every row is written below
	c.qp, c.kv, c.mask, c.ctx = qp.Data(), kv.Data(), mask, ctx.Data()
	// All scratch is drawn before any fan-out: chunk bodies index
	// disjoint rows and the arena is never bumped inside the parallel
	// region. qz holds one head's q̃ and then, in place, z̄.
	c.qz = ar.Float32s(n * kDim)
	c.scores = ar.Float32s(n * k)
	if weights != nil {
		c.weights = weights.Data()
	}
	// The method value (a heap copy of c) exists only on the fan-out
	// branch so the serial path stays allocation-free.
	if parallel.WillFanOut(n) {
		parallel.ForChunked(n, 0, c.rows)
	} else {
		c.rows(0, n)
	}
	return ctx
}

// newAttnCore binds the core to its WK/WV weights for queries of width
// e, k slots per target and kv rows of width kDim; the caller points
// qp, kv, mask, ctx, qz and scores at its rows. The kernel strides the
// weight rows by kDim and e directly — a mismatch would read the wrong
// rows rather than fail — so the widths are checked here. wvT is
// tensor.PackLinear of wv (DESIGN.md §6.3): nil runs the scalar leaves.
func newAttnCore(wk, wv *Linear, wvT []float32, heads, e, k, kDim int) attnCore {
	if wk.W.Dim(1) != kDim || wv.W.Dim(1) != kDim {
		panic(fmt.Sprintf("nn: attention kv width %d != WK/WV input width %d/%d", kDim, wk.W.Dim(1), wv.W.Dim(1)))
	}
	if wk.W.Dim(0) != e || wv.W.Dim(0) != e || e%heads != 0 {
		panic(fmt.Sprintf("nn: attention query width %d != WK/WV output width %d/%d, or not divisible by heads %d",
			e, wk.W.Dim(0), wv.W.Dim(0), heads))
	}
	hd := e / heads
	c := attnCore{
		heads: heads, hd: hd, e: e, k: k, kDim: kDim,
		scale: float32(1 / math.Sqrt(float64(hd))),
		wk:    wk.W.Data(), wv: wv.W.Data(), wvT: wvT,
	}
	if wk.B != nil {
		c.bk = wk.B.Data()
	}
	if wv.B != nil {
		c.bv = wv.B.Data()
	}
	return c
}

// attnCore carries the attention operands into the row kernel: a whole
// batch for absorbedAttention, one tile at a time for the layer pass.
type attnCore struct {
	heads, hd, e, k, kDim int
	scale                 float32
	wk, bk, wv, bv        []float32 // (E, KDim) weights, (E) biases or nil
	wvT                   []float32 // (KDim, E) pack of wv: non-nil selects the vector kernels
	qp, kv, ctx           []float32
	mask                  []bool
	weights               []float32 // (n, heads, k) or nil
	qz, scores            []float32
}

// rows computes context rows [lo,hi), one target at a time.
func (c attnCore) rows(lo, hi int) {
	for i := lo; i < hi; i++ {
		c.row(i)
	}
}

// row computes target i's context: per head, absorb WK into the query,
// score and softmax over the valid kv rows, sum those rows by weight,
// and project the sum through WV. Padded kv rows are never read. Each of
// the four leaves runs either as the scalar function at the bottom of
// this file or, when the core holds the WVᵀ pack, as the vector kernel
// that gives every element the same sum in the same order.
func (c attnCore) row(i int) {
	k, kd, hd := c.k, c.kDim, c.hd
	mask := c.mask[i*k : (i+1)*k]
	ctx := c.ctx[i*c.e : (i+1)*c.e]
	if !slices.Contains(mask, true) {
		clear(ctx)
		if c.weights != nil {
			clear(c.weights[i*c.heads*k : (i+1)*c.heads*k])
		}
		return
	}
	vec := c.wvT != nil
	scores := c.scores[i*k : (i+1)*k]
	zs := c.kv[i*k*kd : (i+1)*k*kd]
	qt := c.qz[i*kd : (i+1)*kd]
	for h := 0; h < c.heads; h++ {
		qh := c.qp[i*c.e+h*hd : i*c.e+(h+1)*hd]
		// q̃_h = Σ_d qp[h·hd+d]·WK[h·hd+d,:], d ascending.
		wkh := c.wk[h*hd*kd : (h+1)*hd*kd]
		clear(qt)
		if vec {
			tensor.AccumRows(qt, qh, wkh, kd)
		} else {
			addRowsScaled(qt, qh, wkh)
		}
		var ch float32
		if c.bk != nil {
			ch = dot(qh, c.bk[h*hd:(h+1)*hd])
		}
		// q̃_h·z_j for the valid slots, then the scaled scores in place.
		if vec {
			tensor.DotRows(scores, qt, zs, kd, mask)
		} else {
			for j, ok := range mask {
				if ok {
					scores[j] = dot(qt, zs[j*kd:(j+1)*kd])
				}
			}
		}
		maxv := float32(math.Inf(-1))
		for j, ok := range mask {
			if !ok {
				continue
			}
			s := (scores[j] + ch) * c.scale
			scores[j] = s
			if s > maxv {
				maxv = s
			}
		}
		// Stable softmax over valid slots.
		var sum float64
		for j, ok := range mask {
			if !ok {
				continue
			}
			ex := math.Exp(float64(scores[j] - maxv))
			scores[j] = float32(ex)
			sum += ex
		}
		inv := float32(1 / sum)
		for j, ok := range mask {
			var alpha float32
			if ok {
				alpha = scores[j] * inv
				scores[j] = alpha
			}
			if c.weights != nil {
				c.weights[(i*c.heads+h)*k+j] = alpha
			}
		}
		// z̄_h = Σ_j α_j z_j, j ascending, replaces q̃_h in place: one
		// accumulate per run of valid slots, or one axpy per slot.
		clear(qt)
		for j := 0; j < k; j++ {
			if !mask[j] {
				continue
			}
			if !vec {
				axpy(scores[j], zs[j*kd:(j+1)*kd], qt)
				continue
			}
			j0 := j
			for j < k && mask[j] {
				j++
			}
			tensor.AccumRows(qt, scores[j0:j], zs[j0*kd:j*kd], kd)
		}
		// ctx_h = WV_h·z̄_h + bV_h.
		ctxh := ctx[h*hd : (h+1)*hd]
		if vec {
			clear(ctxh)
			tensor.AccumRows(ctxh, qt, c.wvT[h*hd:], c.e)
		} else {
			rowDots(ctxh, c.wv[h*hd*kd:(h+1)*hd*kd], qt)
		}
		if c.bv != nil {
			for d, b := range c.bv[h*hd : (h+1)*hd] {
				ctxh[d] += b
			}
		}
	}
}

// addRowsScaled adds Σ_r a[r]·w[r,:] to y, r ascending per element, for
// the (len(a), len(y)) row-major w. Four rows share one pass over y:
// the scalar loops are bound by loads and stores, and this takes y's
// traffic from two accesses per multiply-add to a half.
func addRowsScaled(y, a, w []float32) {
	m := len(y)
	r := 0
	for ; r+4 <= len(a); r += 4 {
		a0, a1, a2, a3 := a[r], a[r+1], a[r+2], a[r+3]
		w0, w1, w2, w3 := w[r*m:][:m], w[(r+1)*m:][:m], w[(r+2)*m:][:m], w[(r+3)*m:][:m]
		for x, v := range y {
			y[x] = v + a0*w0[x] + a1*w1[x] + a2*w2[x] + a3*w3[x]
		}
	}
	for ; r < len(a); r++ {
		axpy(a[r], w[r*m:(r+1)*m], y)
	}
}

// rowDots writes out[r] = w[r,:]·x for the (len(out), len(x)) row-major
// w, every element one sequential sum over x. Four rows share one pass
// over x, each with its own accumulator.
func rowDots(out, w, x []float32) {
	m := len(x)
	r := 0
	for ; r+4 <= len(out); r += 4 {
		w0, w1, w2, w3 := w[r*m:][:m], w[(r+1)*m:][:m], w[(r+2)*m:][:m], w[(r+3)*m:][:m]
		var s0, s1, s2, s3 float32
		for i, v := range x {
			s0 += v * w0[i]
			s1 += v * w1[i]
			s2 += v * w2[i]
			s3 += v * w3[i]
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < len(out); r++ {
		wr := w[r*m:][:m]
		var s float32
		for i, v := range x {
			s += v * wr[i]
		}
		out[r] = s
	}
}

// dot returns Σ a[x]·b[x] over four interleaved partial sums, combined
// in a fixed order.
func dot(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	x := 0
	for ; x+4 <= len(a); x += 4 {
		s0 += a[x] * b[x]
		s1 += a[x+1] * b[x+1]
		s2 += a[x+2] * b[x+2]
		s3 += a[x+3] * b[x+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; x < len(a); x++ {
		s += a[x] * b[x]
	}
	return s
}

// axpy adds alpha·x to y element-wise.
func axpy(alpha float32, x, y []float32) {
	x = x[:len(y)]
	for i, v := range y {
		y[i] = v + alpha*x[i]
	}
}

// Params returns the trainable tensors of all projections.
func (a *TemporalAttention) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	ps = append(ps, a.WQ.Params()...)
	ps = append(ps, a.WK.Params()...)
	ps = append(ps, a.WV.Params()...)
	ps = append(ps, a.WO.Params()...)
	return ps
}

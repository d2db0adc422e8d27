package tensor

import (
	"fmt"

	"tgopt/internal/parallel"
)

// MatMul computes C = A·B for rank-2 tensors A (m,k) and B (k,n).
func MatMul(a, b *Tensor) *Tensor {
	m := a.shape[0]
	if b.Rank() != 2 || a.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	out := New(m, b.shape[1])
	MatMulInto(a, b, out)
	return out
}

// MatMulInto computes dst = A·B, with dst preallocated to shape (m, n);
// dst's prior contents are overwritten. The kernel processes four A
// rows at a time in i-k-j order, so each streamed B row is reused for
// four output rows while it sits in registers/L1 — the register
// blocking that makes the dense path memory-bandwidth-, not
// latency-bound. The inner loop is branch-free. The row loop
// parallelizes when parallel.WillFanOut(m).
func MatMulInto(a, b, dst *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, cd := a.data, b.data, dst.data
	// The closure is built only on the fan-out branch: creating it
	// unconditionally would heap-allocate it on the serial path too
	// (it escapes through ForChunked), breaking the zero-alloc contract.
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) { matmulRows(ad, bd, cd, lo, hi, k, n) })
	} else {
		matmulRows(ad, bd, cd, 0, m, k, n)
	}
}

// matmulRows computes rows [lo,hi) of c = a·b with 4-row register
// blocking and a branch-free inner loop. Rows are fully overwritten.
func matmulRows(a, b, c []float32, lo, hi, k, n int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := c[(i+0)*n : (i+0)*n+n]
		r1 := c[(i+1)*n : (i+1)*n+n]
		r2 := c[(i+2)*n : (i+2)*n+n]
		r3 := c[(i+3)*n : (i+3)*n+n]
		clear(r0)
		clear(r1)
		clear(r2)
		clear(r3)
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for kk := 0; kk < k; kk++ {
			brow := b[kk*n : kk*n+n]
			av0, av1, av2, av3 := a0[kk], a1[kk], a2[kk], a3[kk]
			for j, bv := range brow {
				r0[j] += av0 * bv
				r1[j] += av1 * bv
				r2[j] += av2 * bv
				r3[j] += av3 * bv
			}
		}
	}
	for ; i < hi; i++ {
		crow := c[i*n : i*n+n]
		clear(crow)
		arow := a[i*k : i*k+k]
		for kk, av := range arow {
			brow := b[kk*n : kk*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// PackedScratchLen returns the scratch length MatMulPackedInto needs
// for a B operand of shape (k, n).
func PackedScratchLen(k, n int) int { return k * ((n + 3) &^ 3) }

// MatMulPackedInto computes dst = A·B like MatMulInto, but first packs
// B into column panels of width 4 (zero-padded at the tail) so the 4×4
// micro-kernel reads both operands with unit stride and keeps sixteen
// accumulators in registers. pack must have at least
// PackedScratchLen(k, n) elements — pass an arena slice to keep the
// call allocation-free. The packing cost is O(k·n), amortized over m
// rows. Despite the extra register blocking this kernel measured ~10%
// slower than MatMulInto at the tall-skinny attention shape (m=2048,
// k=96, n=64: 195.5 vs 216.6 MB/s) — the repack pass plus
// panel-boundary stores outweigh the blocking — so no inference path
// selects it; the tensor.matmul_packed_gflops probe of the benchmark
// keeps pricing it.
func MatMulPackedInto(a, b, dst *Tensor, pack []float32) {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	if b.shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulPackedInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulPackedInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	need := PackedScratchLen(k, n)
	if len(pack) < need {
		panic(fmt.Sprintf("tensor: MatMulPackedInto pack scratch %d, need %d", len(pack), need))
	}
	pack = pack[:need]
	packB(b.data, k, n, pack)
	ad, cd := a.data, dst.data
	pk := pack
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) { matmulPackedRows(ad, pk, cd, lo, hi, k, n) })
	} else {
		matmulPackedRows(ad, pk, cd, 0, m, k, n)
	}
}

// packB rearranges B (k, n) into ceil(n/4) contiguous panels of shape
// (k, 4); panel p holds columns 4p..4p+3, zero-padded past n.
func packB(b []float32, k, n int, pack []float32) {
	np := (n + 3) &^ 3
	for p := 0; p < np/4; p++ {
		base := p * k * 4
		j0 := p * 4
		w := n - j0
		if w > 4 {
			w = 4
		}
		for kk := 0; kk < k; kk++ {
			src := b[kk*n+j0 : kk*n+j0+w]
			d := pack[base+kk*4 : base+kk*4+4]
			d[0], d[1], d[2], d[3] = 0, 0, 0, 0
			copy(d, src)
		}
	}
}

// matmulPackedRows runs the 4×4 micro-kernel over rows [lo,hi).
func matmulPackedRows(a, pack, c []float32, lo, hi, k, n int) {
	np := (n + 3) &^ 3
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for p := 0; p < np/4; p++ {
			pb := pack[p*k*4 : (p+1)*k*4]
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			for kk := 0; kk < k; kk++ {
				o := kk * 4
				b0, b1, b2, b3 := pb[o], pb[o+1], pb[o+2], pb[o+3]
				av := a0[kk]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[kk]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
				av = a2[kk]
				c20 += av * b0
				c21 += av * b1
				c22 += av * b2
				c23 += av * b3
				av = a3[kk]
				c30 += av * b0
				c31 += av * b1
				c32 += av * b2
				c33 += av * b3
			}
			j0 := p * 4
			storePanelRow(c[(i+0)*n:(i+0)*n+n], j0, c00, c01, c02, c03)
			storePanelRow(c[(i+1)*n:(i+1)*n+n], j0, c10, c11, c12, c13)
			storePanelRow(c[(i+2)*n:(i+2)*n+n], j0, c20, c21, c22, c23)
			storePanelRow(c[(i+3)*n:(i+3)*n+n], j0, c30, c31, c32, c33)
		}
	}
	if i < hi {
		// Remainder rows (at most 3): the plain blocked kernel needs the
		// original row-major B, which the packed panels can reproduce
		// column-by-column; reuse the scalar path instead.
		for ; i < hi; i++ {
			arow := a[i*k : i*k+k]
			crow := c[i*n : i*n+n]
			for p := 0; p < np/4; p++ {
				pb := pack[p*k*4 : (p+1)*k*4]
				var c0, c1, c2, c3 float32
				for kk := 0; kk < k; kk++ {
					o := kk * 4
					av := arow[kk]
					c0 += av * pb[o]
					c1 += av * pb[o+1]
					c2 += av * pb[o+2]
					c3 += av * pb[o+3]
				}
				storePanelRow(crow, p*4, c0, c1, c2, c3)
			}
		}
	}
}

// storePanelRow writes up to four accumulated panel values into row at
// column j0, discarding the zero-padded tail.
func storePanelRow(row []float32, j0 int, v0, v1, v2, v3 float32) {
	switch len(row) - j0 {
	case 1:
		row[j0] = v0
	case 2:
		row[j0], row[j0+1] = v0, v1
	case 3:
		row[j0], row[j0+1], row[j0+2] = v0, v1, v2
	default:
		row[j0], row[j0+1], row[j0+2], row[j0+3] = v0, v1, v2, v3
	}
}

// matmulSparseRows computes rows [lo,hi) of c = a·b, skipping zero a
// entries. It only pays off when a is genuinely sparse (≳80% zeros, e.g.
// the masked attention weights of mostly-padded neighborhoods).
// Skipping a zero entry drops the 0·b term, so results are
// bitwise-identical to the dense kernel only for finite b; with ±Inf or
// NaN in b the dense kernel would produce NaN where this one produces
// 0. All operands on the inference path are finite (the engine's
// HasNaN guard), so the substitution is legal there.
func matmulSparseRows(a, b, c []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		clear(crow)
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : kk*n+n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulT computes C = A·Bᵀ for A (m,k) and B (n,k), i.e. every output
// element is a dot product of an A row with a B row. This avoids
// materializing the transpose and is the kernel the attention layer uses
// for query–key scores.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 operands")
	}
	out := New(a.shape[0], b.shape[0])
	MatMulTInto(a, b, out)
	return out
}

// MatMulTInto computes dst = A·Bᵀ with dst preallocated to (m, n). The
// kernel computes four output columns at a time — four B rows stream
// against one cached A row with independent accumulators — which is the
// hot shape of every nn.Linear projection (x·Wᵀ).
func MatMulTInto(a, b, dst *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMulTInto requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if b.shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTInto inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, cd := a.data, b.data, dst.data
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) { matmulTRows(ad, bd, cd, lo, hi, k, n) })
	} else {
		matmulTRows(ad, bd, cd, 0, m, k, n)
	}
}

// matmulTRows computes rows [lo,hi) of c = a·bᵀ, four output columns
// (B rows) at a time against one cached A row.
func matmulTRows(a, b, c []float32, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for kk, av := range arow {
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			crow[j] = dot32(arow, b[j*k:j*k+k])
		}
	}
}

// BatchedMatMulInto computes C[b] = A[b]·B[b] into dst (B,m,n),
// overwriting it. Batches are independent; the batch loop parallelizes
// when parallel.WillFanOut(bs), with a serial blocked kernel per batch.
func BatchedMatMulInto(a, b, dst *Tensor) {
	bs, m, k, n := batchedCheck("BatchedMatMulInto", a, b, dst)
	ad, bd, cd := a.data, b.data, dst.data
	if parallel.WillFanOut(bs) {
		parallel.ForChunked(bs, 0, func(lo, hi int) { batchedRange(ad, bd, cd, lo, hi, m, k, n) })
	} else {
		batchedRange(ad, bd, cd, 0, bs, m, k, n)
	}
}

// batchedRange runs the dense blocked kernel for batches [lo,hi).
func batchedRange(a, b, c []float32, lo, hi, m, k, n int) {
	for bi := lo; bi < hi; bi++ {
		matmulRows(a[bi*m*k:(bi+1)*m*k], b[bi*k*n:(bi+1)*k*n], c[bi*m*n:(bi+1)*m*n], 0, m, k, n)
	}
}

// BatchedMatMulSparseInto is BatchedMatMulInto skipping zero A entries.
// The batched attention kernel uses it for the α·V product, where the
// masked softmax zeroes every padded neighbor slot — A is genuinely
// sparse there. Legality caveats as matmulSparseRows.
func BatchedMatMulSparseInto(a, b, dst *Tensor) {
	bs, m, k, n := batchedCheck("BatchedMatMulSparseInto", a, b, dst)
	ad, bd, cd := a.data, b.data, dst.data
	if parallel.WillFanOut(bs) {
		parallel.ForChunked(bs, 0, func(lo, hi int) { batchedSparseRange(ad, bd, cd, lo, hi, m, k, n) })
	} else {
		batchedSparseRange(ad, bd, cd, 0, bs, m, k, n)
	}
}

// batchedSparseRange runs the zero-skipping kernel for batches [lo,hi).
func batchedSparseRange(a, b, c []float32, lo, hi, m, k, n int) {
	for bi := lo; bi < hi; bi++ {
		matmulSparseRows(a[bi*m*k:(bi+1)*m*k], b[bi*k*n:(bi+1)*k*n], c[bi*m*n:(bi+1)*m*n], 0, m, k, n)
	}
}

func batchedCheck(op string, a, b, dst *Tensor) (bs, m, k, n int) {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic("tensor: " + op + " requires rank-3 operands")
	}
	bs, m, k = a.shape[0], a.shape[1], a.shape[2]
	if b.shape[0] != bs || b.shape[1] != k {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v x %v", op, a.shape, b.shape))
	}
	n = b.shape[2]
	if dst.Rank() != 3 || dst.shape[0] != bs || dst.shape[1] != m || dst.shape[2] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d %d]", op, dst.shape, bs, m, n))
	}
	return bs, m, k, n
}

// LinearIntoWith computes x·Wᵀ + bias into dst (n, out), overwriting
// it, for x (n, in), W (out, in) and bias [out] (bias may be nil; the
// PyTorch nn.Linear weight layout). It runs the process's vector
// kernel, where it has one: Wᵀ is packed into scratch drawn from ar
// (heap when ar is nil) for this call alone, before any fan-out. The
// row loop parallelizes when parallel.WillFanOut(n); each chunk is one
// LinearRowsPacked call, so the bias rides in the same pass as the
// product. Same bits as the scalar kernel.
func LinearIntoWith(ar *Arena, x, w, bias, dst *Tensor) {
	linearInto(x, w, PackLinear(ar, w), bias, dst)
}

// LinearIntoPacked is LinearIntoWith over wt = PackLinear(·, w), made
// since the last write to w; a nil wt is the scalar kernel. Same bits.
func LinearIntoPacked(x, w *Tensor, wt []float32, bias, dst *Tensor) {
	linearInto(x, w, wt, bias, dst)
}

func linearInto(x, w *Tensor, wt []float32, bias, dst *Tensor) {
	if x.Rank() != 2 || w.Rank() != 2 {
		panic("tensor: LinearInto requires rank-2 operands")
	}
	m, k := x.shape[0], x.shape[1]
	n := w.shape[0]
	if w.shape[1] != k {
		panic(fmt.Sprintf("tensor: LinearInto inner dimension mismatch %v x %v", x.shape, w.shape))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: LinearInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	xd, cd := x.data, dst.data
	// Closure built only on the fan-out branch; see MatMulInto.
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) { LinearRowsPacked(xd[lo*k:hi*k], hi-lo, w, wt, bias, cd[lo*n:hi*n]) })
	} else {
		LinearRowsPacked(xd, m, w, wt, bias, cd)
	}
}

// LinearRowsPacked computes dst = x·Wᵀ + bias for the m rows of x
// (m, in) into dst (m, out), serially on the calling goroutine: the
// row-range kernel under LinearIntoWith, for callers already inside a
// parallel region (the fused layer pass hands it one tile at a time).
// Every output element is one fixed-order sum over its own x row, so a
// row's bits do not depend on which call computes it. bias may be nil.
// With wt = PackLinear(·, w) the first out&^3 columns of each row are
// AccumRows over Wᵀ, four rows to an AccumRows4 call — lanes across the
// outputs, each output the sequential sum from +0 that matmulTRows
// gives it — and the out%4 tail columns keep matmulTRows' dot32, whose
// sum associates differently. A nil wt is the scalar kernel throughout.
func LinearRowsPacked(x []float32, m int, w *Tensor, wt []float32, bias *Tensor, dst []float32) {
	n, k := w.shape[0], w.shape[1]
	if len(x) != m*k || len(dst) != m*n {
		panic(fmt.Sprintf("tensor: LinearRows x/dst lengths %d/%d, want %d/%d", len(x), len(dst), m*k, m*n))
	}
	if wt == nil {
		matmulTRows(x, w.data, dst, 0, m, k, n)
	} else {
		if len(wt) != n*k {
			panic(fmt.Sprintf("tensor: LinearRowsPacked pack length %d, want %d", len(wt), n*k))
		}
		n4 := n &^ 3
		for i := 0; i < m; i++ {
			xr, dr := x[i*k:(i+1)*k], dst[i*n:(i+1)*n]
			clear(dr[:n4])
			for j := n4; j < n; j++ {
				dr[j] = dot32(xr, w.data[j*k:(j+1)*k])
			}
		}
		i := 0
		for ; i+4 <= m; i += 4 {
			AccumRows4(dst[i*n:], n4, n, x[i*k:], k, k, wt, n)
		}
		for ; i < m; i++ {
			AccumRows(dst[i*n:][:n4], x[i*k:(i+1)*k], wt, n)
		}
	}
	if bias == nil {
		return
	}
	if bias.Len() != n {
		panic(fmt.Sprintf("tensor: LinearRows bias length %d, want %d", bias.Len(), n))
	}
	addRowBias(dst, bias.data)
}

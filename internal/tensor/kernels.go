package tensor

import (
	"fmt"
	"math"
)

// This file is the portable face of the leaf kernels (DESIGN.md §6.3).
// Each function below is complete on every platform: where the process
// runs the AVX2 kernels (amd64 with AVX2 and OS-saved YMM state, built
// without the purego tag, with AccumRows and CosRow taking their wide
// columns through an AVX-512F tier where the CPU has it and the OS
// saves the ZMM state) the vector part of the work goes through them
// and the loop here finishes the rest; elsewhere the loop does all of
// it. Either way the result is the same float32 bits as the scalar
// kernel each one stands in for — matmulTRows here, and addRowsScaled,
// axpy, rowDots, dot and the time encoder's cosine loop in package nn.

// Kernels names the leaf kernels this process runs, for start-up logs:
// "avx512", "avx2" or "generic". Code does not branch on it: a caller
// with a blocked scalar kernel of its own asks PackLinear for a pack
// and runs the scalar kernel when it gets nil — the portable loops here
// are correct, not tuned.
func Kernels() string {
	if useAVX512 {
		return "avx512"
	}
	if useAVX2 {
		return "avx2"
	}
	return "generic"
}

// AccumRows adds Σ_r a[r]·w[r·stride+x] to y[x] for every x < len(y),
// one term at a time with r ascending, each product and each sum
// rounded to float32 on its own: for every element the exact sequential
// sum of
//
//	for r := range a { y[x] += a[r] * w[r*stride+x] }
//
// w holds len(a) rows of at least len(y) floats, stride apart.
func AccumRows(y, a, w []float32, stride int) {
	n := len(y)
	if n == 0 || len(a) == 0 {
		return
	}
	if stride < n || len(w) < (len(a)-1)*stride+n {
		panic(fmt.Sprintf("tensor: AccumRows w length %d, stride %d: want %d rows of %d", len(w), stride, len(a), n))
	}
	done := accumRowsVec(y, a, w, stride)
	if done == n {
		return
	}
	tail := y[done:]
	for r, av := range a {
		wr := w[r*stride+done:][:len(tail)]
		for x, wv := range wr {
			tail[x] += av * wv
		}
	}
}

// AccumRows4 is AccumRows for four targets over one w: for t < 4,
//
//	AccumRows(y[t*ldy:][:n], a[t*lda:][:rows], w, stride)
//
// every element the same sum in the same order. Where the AVX-512 tier
// runs, the leading n&^15 columns load each weight row once for all
// four targets; the rest, and every column elsewhere, go through
// AccumRows.
func AccumRows4(y []float32, n, ldy int, a []float32, rows, lda int, w []float32, stride int) {
	if n == 0 || rows == 0 {
		return
	}
	if ldy < n || lda < rows || len(y) < 3*ldy+n || len(a) < 3*lda+rows {
		panic(fmt.Sprintf("tensor: AccumRows4 y %d (ldy %d), a %d (lda %d): want four rows of %d and of %d", len(y), ldy, len(a), lda, n, rows))
	}
	if stride < n || len(w) < (rows-1)*stride+n {
		panic(fmt.Sprintf("tensor: AccumRows4 w length %d, stride %d: want %d rows of %d", len(w), stride, rows, n))
	}
	done := accumRows4Vec(y, n, ldy, a, rows, lda, w, stride)
	if done == n {
		return
	}
	for t := 0; t < 4; t++ {
		AccumRows(y[t*ldy+done:][:n-done], a[t*lda:][:rows], w[done:], stride)
	}
}

// dotChunk is the number of slots DotRows hands one kernel call: every
// valid slot of a target with up to dotChunk of them.
const dotChunk = 16

// DotRows writes out[j] = q·z[j·stride:][:len(q)] for every j with
// mask[j] set, and leaves the other elements of out and the other rows
// of z untouched and unread. Each dot is four interleaved partial sums
// over len(q)&^3 elements, combined (s0+s1)+(s2+s3), then the remaining
// elements added in order. One kernel call scores up to dotChunk valid
// slots, four at a time.
func DotRows(out, q, z []float32, stride int, mask []bool) {
	k, m := len(mask), len(q)
	if k == 0 {
		return
	}
	if len(out) < k || stride < m || len(z) < (k-1)*stride+m {
		panic(fmt.Sprintf("tensor: DotRows out %d, z %d, stride %d: want %d rows of %d", len(out), len(z), stride, k, m))
	}
	m4 := m &^ 3
	var slots [dotChunk]int
	for lo := 0; lo < k; lo += dotChunk {
		g := 0
		for j, ok := range mask[lo:min(lo+dotChunk, k)] {
			if ok {
				slots[g] = lo + j
				g++
			}
		}
		if g == 0 {
			continue
		}
		// A short last group of four repeats the first slot.
		for i := g; i&3 != 0; i++ {
			slots[i] = slots[0]
		}
		dotRows(out, q[:m4], z, stride, slots[:(g+3)&^3])
		if m4 == m {
			continue
		}
		for _, j := range slots[:g] {
			row := z[j*stride:][:m]
			s := out[j]
			for x := m4; x < m; x++ {
				s += q[x] * row[x]
			}
			out[j] = s
		}
	}
}

// dotRowsGo is dotRows in Go: per slot, four interleaved partial sums
// over q (its length a multiple of 4) combined (s0+s1)+(s2+s3).
func dotRowsGo(out, q, z []float32, stride int, slots []int) {
	for _, j := range slots {
		b := z[j*stride:][:len(q)]
		var s0, s1, s2, s3 float32
		for x := 0; x+4 <= len(q); x += 4 {
			s0 += q[x] * b[x]
			s1 += q[x+1] * b[x+1]
			s2 += q[x+2] * b[x+2]
			s3 += q[x+3] * b[x+3]
		}
		out[j] = (s0 + s1) + (s2 + s3)
	}
}

// PrefetchRows hints rows idx of the row-major data, w floats a row,
// into L2 (PREFETCHT1 on each of their cache lines) where the process
// runs the assembly kernels, and does nothing elsewhere. It reads no
// row and changes nothing a caller can observe but time; an index out
// of range is not an error, since nothing is read.
func PrefetchRows(data []float32, w int, idx []int32) {
	if len(data) == 0 || w <= 0 || len(idx) == 0 {
		return
	}
	prefetch(data, w, idx)
}

// CosRow writes dst[j] = float32(math.Cos(dt·float64(omega[j]) +
// float64(phi[j]))): one row of the time encoding. The vector kernels
// follow math.Cos's own steps below its Payne–Hanek threshold, lane by
// lane in float64; a row holding an argument that is NaN, ±Inf or at
// least 2^28 in magnitude goes through math.Cos whole.
func CosRow(dst []float32, dt float64, omega, phi []float32) {
	if len(omega) != len(dst) || len(phi) != len(dst) {
		panic(fmt.Sprintf("tensor: CosRow dst/omega/phi lengths %d/%d/%d", len(dst), len(omega), len(phi)))
	}
	for j := cosRowVec(dst, dt, omega, phi); j < len(dst); j++ {
		dst[j] = float32(math.Cos(dt*float64(omega[j]) + float64(phi[j])))
	}
}

// transpose writes the (rows, cols) row-major src into dst as
// (cols, rows).
func transpose(dst, src []float32, rows, cols int) {
	r8, c8 := transposeVec(dst, src, rows, cols)
	for r := 0; r < rows; r++ {
		c := 0
		if r < r8 {
			c = c8
		}
		for ; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}

// PackLinear returns Wᵀ (in, out) for the (out, in) weight w, drawn
// from ar (heap when ar is nil): the layout in which AccumRows runs a
// projection with its lanes across the outputs. It returns nil — use
// the scalar kernel — where the process runs no vector kernels or w has
// fewer than four outputs. The pack is a copy, valid until the next
// write to w: the public ops pack per call, and core.Engine packs its
// layers once per params version (nn.PackLayer), rebuilding them after
// a swap.
func PackLinear(ar *Arena, w *Tensor) []float32 {
	if w.Rank() != 2 {
		panic("tensor: PackLinear requires a rank-2 weight")
	}
	n, k := w.shape[0], w.shape[1]
	if !useAVX2 || n < 4 {
		return nil
	}
	wt := ar.Float32s(n * k)
	transpose(wt, w.data, n, k)
	return wt
}

package tensor

import (
	"fmt"
	"math"
)

// This file is the portable face of the leaf kernels (DESIGN.md §6.3).
// Each function below is complete on every platform: where the process
// runs the AVX2 kernels (amd64 with AVX2 and OS-saved YMM state, built
// without the purego tag) the vector part of the work goes through
// them and the loop here finishes the rest; elsewhere the loop does all
// of it. Either way the result is the same float32 bits as the scalar
// kernel each one stands in for — matmulTRows here, and addRowsScaled,
// axpy, rowDots, dot and the time encoder's cosine loop in package nn.

// Kernels names the leaf kernels this process runs, for start-up logs:
// "avx2" or "generic". Code does not branch on it: a caller with a
// blocked scalar kernel of its own asks PackLinear for a pack and runs
// the scalar kernel when it gets nil — the portable loops here are
// correct, not tuned.
func Kernels() string {
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

// DotRows writes out[j] = q·z[j·stride:][:len(q)] for every j with
// mask[j] set, and leaves the other elements of out and the other rows
// of z untouched and unread. Each dot is four interleaved partial sums
// over len(q)&^3 elements, combined (s0+s1)+(s2+s3), then the remaining
// elements added in order.
func DotRows(out, q, z []float32, stride int, mask []bool) {
	k, m := len(mask), len(q)
	if k == 0 {
		return
	}
	if len(out) < k || stride < m || len(z) < (k-1)*stride+m {
		panic(fmt.Sprintf("tensor: DotRows out %d, z %d, stride %d: want %d rows of %d", len(out), len(z), stride, k, m))
	}
	m4 := m &^ 3
	var (
		slot, off [4]int
		sums      [4]float32
	)
	g := 0
	for j, ok := range mask {
		if ok {
			slot[g] = j
			g++
		}
		if g < 4 && (g == 0 || j < k-1) {
			continue
		}
		// Four slots per kernel call; a short last group repeats its
		// first slot in the idle lanes.
		for i := range slot {
			if i >= g {
				slot[i] = slot[0]
			}
			off[i] = slot[i] * stride
		}
		dotRows4(&sums, q[:m4], z, &off)
		for i := 0; i < g; i++ {
			row := z[off[i]:][:m]
			s := sums[i]
			for x := m4; x < m; x++ {
				s += q[x] * row[x]
			}
			out[slot[i]] = s
		}
		g = 0
	}
}

// dotRows4Go is dotRows4 in Go: per slot, four interleaved partial sums
// over q (its length a multiple of 4) combined (s0+s1)+(s2+s3).
func dotRows4Go(s *[4]float32, q, z []float32, o *[4]int) {
	for i, off := range o {
		b := z[off:][:len(q)]
		var s0, s1, s2, s3 float32
		for x := 0; x+4 <= len(q); x += 4 {
			s0 += q[x] * b[x]
			s1 += q[x+1] * b[x+1]
			s2 += q[x+2] * b[x+2]
			s3 += q[x+3] * b[x+3]
		}
		s[i] = (s0 + s1) + (s2 + s3)
	}
}

// CosRow writes dst[j] = float32(math.Cos(dt·float64(omega[j]) +
// float64(phi[j]))): one row of the time encoding. The AVX2 kernel
// follows math.Cos's own steps below its Payne–Hanek threshold, lane by
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

//go:build amd64 && !purego

package tensor

// useAVX2 selects the AVX2 leaf kernels (kernels_amd64.s) over the
// scalar loops they reproduce, and useAVX512 the AVX-512F tier of
// AccumRows and CosRow above them. Both are decided once, here, from
// what the CPU and the operating system report; nothing but this
// package's tests sets them afterwards.
var (
	useAVX2   = detectAVX2()
	useAVX512 = useAVX2 && detectAVX512()
)

// detectAVX2 reports whether the CPU has AVX2 (CPUID leaf 7) and the OS
// saves the YMM state across context switches (OSXSAVE, then XCR0 bits
// 1 and 2 through XGETBV).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// detectAVX512 reports whether, on a host detectAVX2 accepts, the CPU
// has AVX-512F (CPUID leaf 7, EBX bit 16) and the OS saves the opmask
// and all 32 ZMM registers (XCR0 bits 5, 6 and 7 beside 1 and 2).
func detectAVX512() bool {
	if lo, _ := xgetbv0(); lo&0xe6 != 0xe6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

//go:noescape
func accumRowsAVX2(y *float32, n int, a *float32, rows int, w *float32, stride int)

//go:noescape
func accumRowsAVX512(y *float32, n int, a *float32, rows int, w *float32, stride int)

//go:noescape
func accumRows4AVX512(y *float32, n, ldy int, a *float32, rows, lda int, w *float32, stride int)

//go:noescape
func dotRowsAVX2(out *float32, q *float32, n int, z *float32, stride int, slots *int, cnt int)

//go:noescape
func prefetchRows(data *float32, w int, idx *int32, n int)

//go:noescape
func transposeAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, cols int)

//go:noescape
func cosRowAVX2(dst *float32, n int, dt float64, omega, phi *float32) (ok bool)

//go:noescape
func cosRowAVX512(dst *float32, n int, dt float64, omega, phi *float32) (ok bool)

// accumRowsVec runs AccumRows' leading len(y)&^3 columns through the
// vector kernels and returns how many it did: the leading len(y)&^15
// through the AVX-512 tier where it runs, the rest through AVX2. The
// caller has checked the slices.
func accumRowsVec(y, a, w []float32, stride int) int {
	n := len(y) &^ 3
	if !useAVX2 || n == 0 {
		return 0
	}
	done := 0
	if useAVX512 {
		done = n &^ 15
	}
	if done > 0 {
		accumRowsAVX512(&y[0], done, &a[0], len(a), &w[0], stride)
	}
	if done < n {
		accumRowsAVX2(&y[done], n-done, &a[0], len(a), &w[done], stride)
	}
	return n
}

// accumRows4Vec runs AccumRows4's leading n&^15 columns through the
// AVX-512 kernel where it runs and returns how many it did. The caller
// has checked the slices.
func accumRows4Vec(y []float32, n, ldy int, a []float32, rows, lda int, w []float32, stride int) int {
	done := n &^ 15
	if !useAVX512 || done == 0 {
		return 0
	}
	accumRows4AVX512(&y[0], done, ldy, &a[0], rows, lda, &w[0], stride)
	return done
}

// dotRows sets out[j] to (s0+s1)+(s2+s3) over q·z[j·stride:], for
// every j in slots (its length a multiple of 4) and q's length a
// multiple of 4: the part of each slot's dot that precedes the scalar
// tail, in one kernel call. The caller has checked that every
// z[j·stride:][:len(q)] and out[j] exists.
func dotRows(out, q, z []float32, stride int, slots []int) {
	if !useAVX2 || len(q) == 0 {
		dotRowsGo(out, q, z, stride, slots)
		return
	}
	dotRowsAVX2(&out[0], &q[0], len(q), &z[0], stride, &slots[0], len(slots))
}

// prefetch hints rows idx of data, w floats each, toward L2. The
// caller has checked that data, w and idx are non-empty.
func prefetch(data []float32, w int, idx []int32) {
	prefetchRows(&data[0], w, &idx[0], len(idx))
}

// transposeVec transposes the leading (rows&^7, cols&^7) block of src
// into dst and returns its extent.
func transposeVec(dst, src []float32, rows, cols int) (r8, c8 int) {
	r8, c8 = rows&^7, cols&^7
	if !useAVX2 || r8 == 0 || c8 == 0 {
		return 0, 0
	}
	transposeAVX2(&dst[0], rows, &src[0], cols, r8, c8)
	return r8, c8
}

// cosRowVec runs CosRow's leading len(dst)&^7 columns through the
// vector kernels and returns how many it did: the leading len(dst)&^15
// through the AVX-512 tier where it runs, the rest through AVX2. It
// returns 0 when either kernel met an argument it does not reduce (NaN,
// ±Inf, magnitude ≥ 2^28).
func cosRowVec(dst []float32, dt float64, omega, phi []float32) int {
	n := len(dst) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	done := 0
	if useAVX512 {
		done = n &^ 15
	}
	if done > 0 && !cosRowAVX512(&dst[0], done, dt, &omega[0], &phi[0]) {
		return 0
	}
	if done < n && !cosRowAVX2(&dst[done], n-done, dt, &omega[done], &phi[done]) {
		return 0
	}
	return n
}

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
func dotRows4AVX2(out *[4]float32, q *float32, n int, z *float32, o0, o1, o2, o3 int)

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

// dotRows4 sets s[i] to (s0+s1)+(s2+s3) over q·z[o[i]:], q's length a
// multiple of 4: the part of four slots' dots that precedes the scalar
// tail. The caller has checked that every z[o[i]:][:len(q)] exists.
func dotRows4(s *[4]float32, q, z []float32, o *[4]int) {
	if !useAVX2 || len(q) == 0 {
		dotRows4Go(s, q, z, o)
		return
	}
	dotRows4AVX2(s, &q[0], len(q), &z[0], o[0], o[1], o[2], o[3])
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

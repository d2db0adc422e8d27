//go:build !amd64 || purego

package tensor

// Without the assembly kernels every leaf runs its portable Go loop.
const useAVX2, useAVX512 = false, false

func accumRowsVec(y, a, w []float32, stride int) int { return 0 }

func accumRows4Vec(y []float32, n, ldy int, a []float32, rows, lda int, w []float32, stride int) int {
	return 0
}

func dotRows(out, q, z []float32, stride int, slots []int) { dotRowsGo(out, q, z, stride, slots) }

func prefetch(data []float32, w int, idx []int32) {}

func transposeVec(dst, src []float32, rows, cols int) (r8, c8 int) { return 0, 0 }

func cosRowVec(dst []float32, dt float64, omega, phi []float32) int { return 0 }

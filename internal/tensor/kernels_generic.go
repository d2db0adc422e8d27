//go:build !amd64 || purego

package tensor

// Without the assembly kernels every leaf runs its portable Go loop.
const useAVX2 = false

func accumRowsVec(y, a, w []float32, stride int) int { return 0 }

func dotRows4(s *[4]float32, q, z []float32, o *[4]int) { dotRows4Go(s, q, z, o) }

func transposeVec(dst, src []float32, rows, cols int) (r8, c8 int) { return 0, 0 }

func cosRowVec(dst []float32, dt float64, omega, phi []float32) int { return 0 }

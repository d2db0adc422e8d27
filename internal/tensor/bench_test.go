package tensor

import (
	"fmt"
	"math"
	"testing"

	"tgopt/internal/parallel"
)

// Matrix-multiplication scaling across the shapes the TGAT layers
// actually produce: tall-skinny projections (many rows, modest inner
// and output dims).
func BenchmarkMatMul(b *testing.B) {
	r := NewRNG(1)
	for _, size := range []struct{ m, k, n int }{
		{64, 96, 64},
		{512, 96, 64},
		{4096, 96, 64},
		{4096, 192, 128},
	} {
		a := Rand(r, size.m, size.k)
		w := Rand(r, size.k, size.n)
		dst := New(size.m, size.n)
		b.Run(fmt.Sprintf("%dx%dx%d", size.m, size.k, size.n), func(b *testing.B) {
			b.SetBytes(int64(4 * (size.m*size.k + size.k*size.n + size.m*size.n)))
			for i := 0; i < b.N; i++ {
				MatMulInto(a, w, dst)
			}
		})
	}
}

func BenchmarkMatMulSerialVsParallel(b *testing.B) {
	r := NewRNG(2)
	a := Rand(r, 2048, 128)
	w := Rand(r, 128, 128)
	dst := New(2048, 128)
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(a, w, dst)
		}
	})
	b.Run("serial", func(b *testing.B) {
		prev := parallel.SetDegree(1)
		defer parallel.SetDegree(prev)
		for i := 0; i < b.N; i++ {
			MatMulInto(a, w, dst)
		}
	})
}

// BenchmarkMatMulKernels compares the dense kernel variants on the
// tall-skinny shape the layer-1 projections produce. This is the
// benchmark the kernel doc comments cite for the default choices.
func BenchmarkMatMulKernels(b *testing.B) {
	r := NewRNG(4)
	const m, k, n = 4096, 96, 64
	a := Rand(r, m, k)
	w := Rand(r, k, n)
	dst := New(m, n)
	bytes := int64(4 * (m*k + k*n + m*n))
	b.Run("naive", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			for row := 0; row < m; row++ {
				crow := dst.data[row*n : (row+1)*n]
				clear(crow)
				for kk := 0; kk < k; kk++ {
					av := a.data[row*k+kk]
					for j := 0; j < n; j++ {
						crow[j] += av * w.data[kk*n+j]
					}
				}
			}
		}
	})
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			MatMulInto(a, w, dst)
		}
	})
	pack := make([]float32, PackedScratchLen(k, n))
	b.Run("packed", func(b *testing.B) {
		b.SetBytes(bytes)
		for i := 0; i < b.N; i++ {
			MatMulPackedInto(a, w, dst, pack)
		}
	})
}

func BenchmarkMatMulT(b *testing.B) {
	r := NewRNG(3)
	x := Rand(r, 4096, 96)
	w := Rand(r, 128, 96) // nn.Linear layout
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT(x, w)
	}
}

// BenchmarkLeafKernels prices the leaf kernels of DESIGN.md §6.3 at the
// benchmark shape (a 32-target tile, widths 64 and 96, ten slots). The
// sub-benchmark named after Kernels() runs what the process dispatches
// to — "avx512" or "avx2" on amd64, "generic" under -tags purego —
// "avx2" beside an "avx512" one runs AccumRows, AccumRows4, DotRows and
// CosRow without their AVX-512 tier, and "scalar" is the Go loop they
// reproduce, where this package has one. "accum4x4" is the four
// AccumRows calls that one AccumRows4 call replaces; "dot" scores ten
// valid slots in one DotRows call.
func BenchmarkLeafKernels(b *testing.B) {
	r := NewRNG(6)
	const m, k, n, slots = 32, 96, 64, 10
	x := Randn(r, m, k)
	w := Randn(r, n, k)
	bias := Randn(r, n)
	dst := make([]float32, m*n)
	ar := NewArena()
	b.Run("linear/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LinearRows(x.data, m, w, bias, dst)
		}
	})
	benchTiers(b, "linear", func(b *testing.B) {
		wt := PackLinear(ar, w)
		for i := 0; i < b.N; i++ {
			LinearRowsPacked(x.data, m, w, wt, bias, dst)
		}
	})
	b.Run("pack/"+Kernels(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar.Reset()
			PackLinear(ar, w)
		}
	})
	y := make([]float32, k)
	benchTiers(b, "accum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumRows(y, x.data[:m], w.data, k)
		}
	})
	// Four targets' AccumRows over one weight, as the attention core
	// runs WV: 96 rows deep into 32 columns, the targets' inputs and
	// outputs a tile's row width apart.
	y4 := make([]float32, 4*n)
	b.Run("accum4x4/"+Kernels(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < 4; t++ {
				AccumRows(y4[t*n:][:32], x.data[t*k:][:k], w.data, n)
			}
		}
	})
	benchTiers(b, "accum4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AccumRows4(y4, 32, n, x.data, k, k, w.data, n)
		}
	})
	mask := make([]bool, slots)
	for j := range mask {
		mask[j] = true
	}
	out := make([]float32, slots)
	benchTiers(b, "dot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRows(out, y, w.data, k, mask)
		}
	})
	om, ph, row := tgatOmega(32), make([]float32, 32), make([]float32, 32)
	b.Run("cos/scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dt := float64(20_000 + i)
			for j := range row {
				row[j] = float32(math.Cos(dt*float64(om[j]) + float64(ph[j])))
			}
		}
	})
	benchTiers(b, "cos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CosRow(row, float64(20_000+i), om, ph)
		}
	})
}

func BenchmarkSoftmax(b *testing.B) {
	r := NewRNG(4)
	a := Randn(r, 4096, 20)
	mask := make([]bool, a.Len())
	for i := range mask {
		mask[i] = i%5 != 0
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			SoftmaxLastDim(a)
		}
	})
	b.Run("masked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaskedSoftmaxLastDim(a, mask)
		}
	})
}

func BenchmarkConcatCols(b *testing.B) {
	r := NewRNG(6)
	x := Rand(r, 4096, 32)
	y := Rand(r, 4096, 32)
	z := Rand(r, 4096, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConcatCols(x, y, z)
	}
}

func BenchmarkElementwise(b *testing.B) {
	r := NewRNG(7)
	x := Rand(r, 1<<16)
	y := Rand(r, 1<<16)
	b.Run("Add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddInPlace(x, y)
		}
	})
	b.Run("ReLU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReLU(x)
		}
	})
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(8)
	b.Run("Uint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Uint64()
		}
	})
	b.Run("NormFloat64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.NormFloat64()
		}
	})
	b.Run("Pareto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.Pareto(1, 1.2)
		}
	})
}

package nn

import (
	"fmt"
	"math"
	"testing"

	"tgopt/internal/tensor"
)

// The scalar leaves of the attention core — addRowsScaled, axpy,
// rowDots, dot — are the portable path and the oracle of the vector
// kernels that replace them where the process runs AVX2 (DESIGN.md
// §6.3). These tests hold the two to the same float32 bits; package
// tensor's own tests sweep the kernels' alignment and bounds.

func randFloats(r *tensor.RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(r.NormFloat64())
	}
	return s
}

// spice plants signed zeros, denormals and infinities in s.
func spice(s []float32, seed int) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for i := seed % 4; i < len(s); i += 4 + seed%3 {
		s[i] = special[(i+seed)%len(special)]
	}
}

func TestAccumRowsMatchesScalarLeavesBitwise(t *testing.T) {
	r := tensor.NewRNG(51)
	for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 64, 96, 100} {
		for _, rows := range []int{1, 3, 4, 32, 64, 96} {
			for _, pad := range []int{0, 3} {
				for _, special := range []bool{false, true} {
					name := fmt.Sprintf("n%d_rows%d_pad%d_special%v", n, rows, pad, special)
					stride := n + pad
					y0, a, w := randFloats(r, n), randFloats(r, rows), randFloats(r, rows*stride)
					if special {
						spice(y0, n)
						spice(a, rows)
						spice(w, n+rows)
					}
					got := append([]float32(nil), y0...)
					tensor.AccumRows(got, a, w, stride)

					// axpy, one row at a time.
					want := append([]float32(nil), y0...)
					for rr, av := range a {
						axpy(av, w[rr*stride:][:n], want)
					}
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s: element %d differs from the axpy loop", name, i)
					}
					if pad != 0 {
						continue
					}
					// addRowsScaled over the dense block.
					want = append(want[:0], y0...)
					addRowsScaled(want, a, w)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("%s: element %d differs from addRowsScaled", name, i)
					}
				}
			}
		}
	}
}

// TestPackedProjectionMatchesRowDotsBitwise: WV_h·z̄ as AccumRows over
// a head's columns of the WVᵀ pack against rowDots over WV's rows.
func TestPackedProjectionMatchesRowDotsBitwise(t *testing.T) {
	r := tensor.NewRNG(52)
	for _, out := range []int{1, 3, 4, 30, 32, 64} {
		for _, in := range []int{1, 5, 24, 96} {
			for _, heads := range []int{1, 2} {
				if out%heads != 0 {
					continue
				}
				w := tensor.Randn(r, out, in)
				x := randFloats(r, in)
				if (out+in)%2 == 1 {
					spice(w.Data(), out)
					spice(x, in)
				}
				want := make([]float32, out)
				rowDots(want, w.Data(), x)

				wt := tensor.PackLinear(nil, w)
				if wt == nil {
					continue // generic kernels, or too narrow to pack: rowDots is what runs
				}
				got := randFloats(r, out) // overwritten, not accumulated into
				hd := out / heads
				for h := 0; h < heads; h++ {
					gh := got[h*hd : (h+1)*hd]
					clear(gh)
					tensor.AccumRows(gh, x, wt[h*hd:], out)
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("out=%d in=%d heads=%d: element %d = %x, want %x", out, in, heads, i,
						math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

func TestDotRowsMatchesDotBitwise(t *testing.T) {
	r := tensor.NewRNG(53)
	const k = 10
	for _, m := range []int{3, 4, 5, 95, 96, 97} {
		q := randFloats(r, m)
		z := randFloats(r, k*m)
		if m%2 == 1 {
			spice(q, m)
			spice(z, m+1)
		}
		mask := make([]bool, k)
		out := make([]float32, k)
		for bits := 0; bits < 1<<k; bits++ {
			for j := range mask {
				mask[j] = bits>>j&1 == 1
				out[j] = -7
			}
			tensor.DotRows(out, q, z, m, mask)
			for j, ok := range mask {
				want := float32(-7)
				if ok {
					want = dot(q, z[j*m:(j+1)*m])
				}
				if math.Float32bits(out[j]) != math.Float32bits(want) {
					t.Fatalf("m=%d mask=%010b: out[%d] = %x, want %x", m, bits, j, math.Float32bits(out[j]), math.Float32bits(want))
				}
			}
		}
	}
}

// TestAttentionCoreVectorMatchesScalarBitwise runs whole targets
// through the core twice — with the WVᵀ pack, so every leaf is the
// vector kernel, and without it, so every leaf is the scalar function —
// over masks with leading, trailing and interior padding, head widths
// with and without a vector remainder, and kv widths that are not a
// multiple of the lane count. Context rows and attention weights must
// agree bit for bit. The vector core takes targets four at a time:
// targets 0 and 6, which have no valid slot, ride in the groups 0..3
// and 4..7, and the last three targets of 43 run one at a time.
func TestAttentionCoreVectorMatchesScalarBitwise(t *testing.T) {
	for _, tc := range []struct{ heads, e, kDim, k int }{
		{2, 64, 96, 10}, {2, 16, 20, 5}, {4, 12, 21, 7}, {1, 8, 9, 1}, {3, 9, 33, 12},
	} {
		r := tensor.NewRNG(uint64(54 + tc.e))
		const n = 43
		wk := NewLinear(r, tc.kDim, tc.e, true)
		wv := NewLinear(r, tc.kDim, tc.e, true)
		copy(wk.B.Data(), randFloats(r, tc.e))
		copy(wv.B.Data(), randFloats(r, tc.e))
		qp := tensor.Randn(r, n, tc.e)
		kv := tensor.Randn(r, n*tc.k, tc.kDim)
		mask := edgeMask(r, n, tc.k)
		clear(mask[6*tc.k : 7*tc.k])
		for i, ok := range mask { // a padded slot's row is never read: poison it
			if !ok {
				for x := 0; x < tc.kDim; x++ {
					kv.Data()[i*tc.kDim+x] = float32(math.NaN())
				}
			}
		}
		run := func(vector bool) (ctx, weights []float32) {
			var wvT []float32
			if vector {
				wvT = tensor.PackLinear(nil, wv.W)
			}
			c := newAttnCore(wk, wv, wvT, tc.heads, tc.e, tc.k, tc.kDim)
			c.qp, c.kv, c.mask = qp.Data(), kv.Data(), mask
			c.ctx = make([]float32, n*tc.e)
			c.weights = make([]float32, n*tc.heads*tc.k)
			c.qz, c.scores = make([]float32, n*tc.heads*tc.kDim), make([]float32, n*tc.k)
			c.rows(0, n)
			return c.ctx, c.weights
		}
		wantCtx, wantW := run(false)
		gotCtx, gotW := run(true)
		if i := sameBits(gotCtx, wantCtx); i >= 0 {
			t.Fatalf("%+v: context element %d (target %d) differs between vector and scalar leaves", tc, i, i/tc.e)
		}
		if i := sameBits(gotW, wantW); i >= 0 {
			t.Fatalf("%+v: attention weight %d differs between vector and scalar leaves", tc, i)
		}
	}
}

// TestEncodeRowMatchesMathCosBitwise: the encoder's row kernel against
// the expression it is defined as, on the encoder's own frequencies and
// on trained-looking ones, for the deltas a stream produces.
func TestEncodeRowMatchesMathCosBitwise(t *testing.T) {
	r := tensor.NewRNG(55)
	for _, d := range []int{1, 8, 32, 37} {
		te := NewTimeEncoder(d)
		for trial := 0; trial < 2; trial++ {
			row := make([]float32, d)
			for i := 0; i < 20_000; i++ {
				dt := float64(r.Intn(5_000_000))
				switch i % 4 {
				case 1:
					dt += r.Float64()
				case 2:
					dt = -dt
				case 3:
					dt *= 1e6 // past the vector kernel's range: math.Cos takes the row
				}
				te.EncodeRow(dt, row)
				for j, got := range row {
					want := float32(math.Cos(dt*float64(te.Omega.Data()[j]) + float64(te.Phi.Data()[j])))
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("d=%d dt=%v column %d: got %x, want %x", d, dt, j, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
			// Second trial: perturbed frequencies and non-zero phases.
			for j := range te.Omega.Data() {
				te.Omega.Data()[j] *= float32(1 + 0.1*r.NormFloat64())
				te.Phi.Data()[j] = float32(r.NormFloat64())
			}
		}
	}
}

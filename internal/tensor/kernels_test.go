package tensor

import (
	"math"
	"testing"
)

// The leaf kernels promise bits, not tolerances: every comparison in
// this file is math.Float32bits equality against the scalar loop the
// kernel stands in for. Under -tags purego the same tests pin the
// portable loops.

const sentinel = float32(-12345.678)

// guarded returns a slice of n floats starting off floats into a fresh
// backing array, with sentinels directly before and after it, and a
// check that they are intact.
func guarded(n, off int) ([]float32, func() bool) {
	buf := make([]float32, off+1+n+1)
	buf[off], buf[off+1+n] = sentinel, sentinel
	return buf[off+1 : off+1+n : off+1+n], func() bool {
		return buf[off] == sentinel && buf[off+1+n] == sentinel
	}
}

// spiced overwrites a few elements of s with signed zeros, denormals
// and infinities, in a pattern fixed by seed.
func spiced(s []float32, seed int) {
	special := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for i := seed % 5; i < len(s); i += 5 + seed%3 {
		s[i] = special[(i+seed)%len(special)]
	}
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAccumRowsMatchesSequentialSumBitwise sweeps AccumRows over the
// shapes either side of every column-block boundary of either tier, at
// every alignment of y, a and w, with and without non-finite inputs,
// against the sum it is defined as.
func TestAccumRowsMatchesSequentialSumBitwise(t *testing.T) {
	eachTier(t, testAccumRowsMatchesSequentialSumBitwise)
}

func testAccumRowsMatchesSequentialSumBitwise(t *testing.T) {
	r := NewRNG(31)
	for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 47, 48, 49, 63, 64, 65, 95, 96, 97, 100, 127, 128, 129, 160} {
		for _, rows := range []int{1, 3, 4, 32, 64, 96} {
			for _, pad := range []int{0, 1, 5} {
				stride := n + pad
				for off := 0; off < 8; off++ {
					y, yOK := guarded(n, off)
					a, _ := guarded(rows, (off+3)%8)
					w, _ := guarded((rows-1)*stride+n, (off+5)%8)
					fill := func(s []float32) {
						for i := range s {
							s[i] = float32(r.NormFloat64())
						}
					}
					fill(y)
					fill(a)
					fill(w)
					if off%2 == 1 {
						spiced(y, off)
						spiced(a, off+1)
						spiced(w, off+2)
					}
					want := append([]float32(nil), y...)
					for x := range want {
						for rr := 0; rr < rows; rr++ {
							want[x] += a[rr] * w[rr*stride+x]
						}
					}
					AccumRows(y, a, w, stride)
					if i := sameBits(y, want); i >= 0 {
						t.Fatalf("n=%d rows=%d stride=%d off=%d: y[%d] = %x, want %x", n, rows, stride, off, i,
							math.Float32bits(y[i]), math.Float32bits(want[i]))
					}
					if !yOK() {
						t.Fatalf("n=%d rows=%d stride=%d off=%d: wrote outside y", n, rows, stride, off)
					}
				}
			}
		}
	}
}

// TestAccumRows4MatchesAccumRowsBitwise: one AccumRows4 call against
// four AccumRows calls, at every column-block size of the AVX-512
// kernel (96, 64, 32 and 16, alone and chained, with an AVX2 or scalar
// remainder), rows 1, 7, 32 and 96, and ldy, lda and stride wider than
// the block. The gaps between the targets' rows of y must come back
// untouched.
func TestAccumRows4MatchesAccumRowsBitwise(t *testing.T) {
	eachTier(t, testAccumRows4MatchesAccumRowsBitwise)
}

func testAccumRows4MatchesAccumRowsBitwise(t *testing.T) {
	r := NewRNG(37)
	fill := func(s []float32) {
		for i := range s {
			s[i] = float32(r.NormFloat64())
		}
	}
	for _, n := range []int{1, 4, 15, 16, 17, 32, 48, 64, 80, 96, 100, 112, 160, 192, 208, 213} {
		for _, rows := range []int{1, 7, 32, 96} {
			for _, pad := range []int{0, 3, 16} {
				ldy, lda, stride := n+pad, rows+pad+1, n+2*pad
				y, yOK := guarded(3*ldy+n, pad%8)
				a, _ := guarded(3*lda+rows, (pad+3)%8)
				w, _ := guarded((rows-1)*stride+n, (pad+5)%8)
				fill(y)
				fill(a)
				fill(w)
				if pad == 3 {
					spiced(y, n)
					spiced(a, rows)
					spiced(w, n+rows)
				}
				want := append([]float32(nil), y...)
				for tt := 0; tt < 4; tt++ {
					AccumRows(want[tt*ldy:][:n], a[tt*lda:][:rows], w, stride)
				}
				AccumRows4(y, n, ldy, a, rows, lda, w, stride)
				if i := sameBits(y, want); i >= 0 {
					t.Fatalf("n=%d rows=%d ldy=%d lda=%d stride=%d: y[%d] (target %d, column %d) = %x, want %x",
						n, rows, ldy, lda, stride, i, i/ldy, i%ldy, math.Float32bits(y[i]), math.Float32bits(want[i]))
				}
				if !yOK() {
					t.Fatalf("n=%d rows=%d ldy=%d: wrote outside y", n, rows, ldy)
				}
			}
		}
	}
}

// dotRef is nn.dot: four interleaved partial sums, (s0+s1)+(s2+s3),
// then the tail in order.
func dotRef(a, b []float32) float32 {
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

// TestDotRowsMatchesFourLaneDotBitwise: every mask pattern of ten
// slots, widths either side of the four-lane step, rows under a padded
// slot poisoned and out under one left alone.
func TestDotRowsMatchesFourLaneDotBitwise(t *testing.T) {
	eachTier(t, testDotRowsMatchesFourLaneDotBitwise)
}

func testDotRowsMatchesFourLaneDotBitwise(t *testing.T) {
	r := NewRNG(32)
	const k = 10
	for _, m := range []int{3, 4, 5, 95, 96, 97} {
		stride := m + m%3
		q, _ := guarded(m, m%8)
		z, _ := guarded((k-1)*stride+m, (m+3)%8)
		for bits := 0; bits < 1<<k; bits++ {
			for i := range q {
				q[i] = float32(r.NormFloat64())
			}
			mask := make([]bool, k)
			for j := range mask {
				mask[j] = bits>>j&1 == 1
			}
			for i := range z {
				z[i] = float32(math.NaN())
			}
			for j, ok := range mask {
				if ok {
					for x := 0; x < m; x++ {
						z[j*stride+x] = float32(r.NormFloat64())
					}
				}
			}
			if bits%3 == 0 {
				spiced(q, bits)
			}
			out, outOK := guarded(k, bits%8)
			for j := range out {
				out[j] = sentinel
			}
			DotRows(out, q, z, stride, mask)
			for j, ok := range mask {
				want := sentinel
				if ok {
					want = dotRef(q, z[j*stride:][:m])
				}
				if math.Float32bits(out[j]) != math.Float32bits(want) {
					t.Fatalf("m=%d mask=%010b: out[%d] = %x, want %x", m, bits, j, math.Float32bits(out[j]), math.Float32bits(want))
				}
			}
			if !outOK() {
				t.Fatalf("m=%d mask=%010b: wrote outside out", m, bits)
			}
		}
	}
}

// TestDotRowsSlotCounts: k ∈ {1, 4, 10, 16, 17} slots — one group of
// four short, whole groups, a short last group, the one-call limit and
// one past it — under full masks, masks with gaps, and single slots,
// against the scalar dot.
func TestDotRowsSlotCounts(t *testing.T) {
	eachTier(t, testDotRowsSlotCounts)
}

func testDotRowsSlotCounts(t *testing.T) {
	r := NewRNG(38)
	for _, k := range []int{1, 4, 10, 16, 17} {
		for _, m := range []int{3, 8, 32, 96, 99} {
			stride := m + 5
			q, _ := guarded(m, k%8)
			z, _ := guarded((k-1)*stride+m, (k+m)%8)
			masks := [][]bool{make([]bool, k), make([]bool, k), make([]bool, k), make([]bool, k)}
			for j := 0; j < k; j++ {
				masks[0][j] = true           // full
				masks[1][j] = j%3 != 1       // gaps
				masks[2][j] = j == k-1       // the last slot alone
				masks[3][j] = r.Intn(2) == 0 // random
			}
			for mi, mask := range masks {
				for i := range q {
					q[i] = float32(r.NormFloat64())
				}
				for i := range z {
					z[i] = float32(math.NaN())
				}
				for j, ok := range mask {
					if ok {
						for x := 0; x < m; x++ {
							z[j*stride+x] = float32(r.NormFloat64())
						}
					}
				}
				out, outOK := guarded(k, mi)
				for j := range out {
					out[j] = sentinel
				}
				DotRows(out, q, z, stride, mask)
				for j, ok := range mask {
					want := sentinel
					if ok {
						want = dotRef(q, z[j*stride:][:m])
					}
					if math.Float32bits(out[j]) != math.Float32bits(want) {
						t.Fatalf("k=%d m=%d mask %d %v: out[%d] = %x, want %x", k, m, mi, mask, j, math.Float32bits(out[j]), math.Float32bits(want))
					}
				}
				if !outOK() {
					t.Fatalf("k=%d m=%d mask %d: wrote outside out", k, m, mi)
				}
			}
		}
	}
}

// TestPrefetchRowsChangesNothing: a hint over rows in range, rows past
// the end of the table and an empty table neither panics nor writes.
func TestPrefetchRowsChangesNothing(t *testing.T) {
	data, ok := guarded(40*33, 3)
	for i := range data {
		data[i] = float32(i)
	}
	PrefetchRows(data, 33, []int32{0, 39, 7, 7, 1 << 20, -5})
	PrefetchRows(nil, 33, []int32{1})
	PrefetchRows(data, 33, nil)
	for i, v := range data {
		if v != float32(i) {
			t.Fatalf("data[%d] = %v after a prefetch", i, v)
		}
	}
	if !ok() {
		t.Fatal("a prefetch wrote outside the table")
	}
}

// TestLinearRowsPackedMatchesScalarBitwise: the projection through
// the pack against matmulTRows, output widths that are all dot32 tail,
// tail plus vector columns, and vector columns alone.
func TestLinearRowsPackedMatchesScalarBitwise(t *testing.T) {
	eachTier(t, testLinearRowsPackedMatchesScalarBitwise)
}

func testLinearRowsPackedMatchesScalarBitwise(t *testing.T) {
	r := NewRNG(33)
	ar := NewArena()
	for _, n := range []int{1, 3, 4, 30, 32, 64} {
		for _, k := range []int{1, 7, 8, 24, 64, 96, 101} {
			for _, m := range []int{1, 5, 33} {
				x := Randn(r, m, k)
				w := Randn(r, n, k)
				bias := Randn(r, n)
				if (n+k+m)%2 == 0 {
					spiced(x.data, n)
					spiced(w.data, k)
				}
				want := make([]float32, m*n)
				LinearRows(x.data, m, w, bias, want)
				ar.Reset()
				wt := PackLinear(ar, w)
				if want := useAVX2 && n >= 4; (wt != nil) != want {
					t.Fatalf("n=%d: pack present = %v, want %v", n, wt != nil, want)
				}
				got, gotOK := guarded(m*n, (n+k)%8)
				LinearRowsPacked(x.data, m, w, wt, bias, got)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("m=%d k=%d n=%d: element %d = %x, want %x", m, k, n, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
				if !gotOK() {
					t.Fatalf("m=%d k=%d n=%d: wrote outside dst", m, k, n)
				}
				dst := New(m, n)
				LinearIntoWith(ar, x, w, bias, dst)
				if i := sameBits(dst.data, want); i >= 0 {
					t.Fatalf("LinearIntoWith m=%d k=%d n=%d: element %d differs", m, k, n, i)
				}
			}
		}
	}
}

// TestAddRowBiasMatchesScalarBitwise: the bias add as row += 1·bias
// through the accumulate kernel against the plain loop.
func TestAddRowBiasMatchesScalarBitwise(t *testing.T) {
	eachTier(t, testAddRowBiasMatchesScalarBitwise)
}

func testAddRowBiasMatchesScalarBitwise(t *testing.T) {
	r := NewRNG(36)
	for _, w := range []int{1, 3, 4, 7, 8, 33, 64, 100} {
		for off := 0; off < 8; off++ {
			data, dataOK := guarded(3*w, off)
			bias, _ := guarded(w, (off+3)%8)
			for i := range data {
				data[i] = float32(r.NormFloat64())
			}
			for i := range bias {
				bias[i] = float32(r.NormFloat64())
			}
			spiced(data, off)
			spiced(bias, off+w)
			want := append([]float32(nil), data...)
			for i := range want {
				want[i] += bias[i%w]
			}
			addRowBias(data, bias)
			if i := sameBits(data, want); i >= 0 {
				t.Fatalf("w=%d off=%d: element %d = %x, want %x", w, off, i, math.Float32bits(data[i]), math.Float32bits(want[i]))
			}
			if !dataOK() {
				t.Fatalf("w=%d off=%d: wrote outside data", w, off)
			}
		}
	}
}

func TestTransposeMatchesDefinition(t *testing.T) {
	r := NewRNG(34)
	for _, rows := range []int{1, 7, 8, 9, 16, 30, 64} {
		for _, cols := range []int{1, 8, 12, 24, 96, 101} {
			src, _ := guarded(rows*cols, rows%8)
			for i := range src {
				src[i] = float32(r.NormFloat64())
			}
			dst, dstOK := guarded(rows*cols, cols%8)
			transpose(dst, src, rows, cols)
			for rr := 0; rr < rows; rr++ {
				for c := 0; c < cols; c++ {
					if dst[c*rows+rr] != src[rr*cols+c] {
						t.Fatalf("%dx%d: dst[%d,%d] != src[%d,%d]", rows, cols, c, rr, rr, c)
					}
				}
			}
			if !dstOK() {
				t.Fatalf("%dx%d: wrote outside dst", rows, cols)
			}
		}
	}
}

// cosRowCheck runs one row through CosRow and compares every element
// with math.Cos. It returns the number of elements checked.
func cosRowCheck(t testing.TB, dst []float32, intact func() bool, dt float64, omega, phi []float32) int {
	for i := range dst {
		dst[i] = sentinel
	}
	CosRow(dst, dt, omega, phi)
	for j := range dst {
		want := float32(math.Cos(dt*float64(omega[j]) + float64(phi[j])))
		if math.Float32bits(dst[j]) != math.Float32bits(want) {
			t.Fatalf("dt=%v ω=%v φ=%v: got %x, want %x", dt, omega[j], phi[j], math.Float32bits(dst[j]), math.Float32bits(want))
		}
	}
	if !intact() {
		t.Fatalf("dt=%v: wrote outside dst", dt)
	}
	return len(dst)
}

// tgatOmega is the encoder's initialisation: 1/10^(9i/(d-1)).
func tgatOmega(d int) []float32 {
	om := make([]float32, d)
	for i := range om {
		om[i] = float32(1 / math.Pow(10, 9*float64(i)/float64(d-1)))
	}
	return om
}

// TestCosRowMatchesMathCosBitwise takes over ten million arguments
// through CosRow: the encoder's geometric ω and random ω, φ; integral,
// fractional and negative dt; arguments one ulp either side of every
// multiple of π/4 the reduction can meet; and rows that cross 2^28 and
// 2^29, or hold NaN or ±Inf, which must fall back to math.Cos and still
// agree.
func TestCosRowMatchesMathCosBitwise(t *testing.T) {
	eachTier(t, testCosRowMatchesMathCosBitwise)
}

func testCosRowMatchesMathCosBitwise(t *testing.T) {
	r := NewRNG(35)
	const d = 32
	dst, intact := guarded(d, 3)
	geo := tgatOmega(d)
	zero := make([]float32, d)
	om, ph := make([]float32, d), make([]float32, d)
	checked := 0

	randomRow := func() {
		for j := range om {
			// ω spread over the encoder's nine decades, either sign.
			om[j] = float32(math.Pow(10, -9*r.Float64()) * math.Copysign(1, r.Float64()-0.2))
			ph[j] = float32((r.Float64() - 0.5) * 8)
		}
	}
	dts := func(i int) float64 {
		switch i % 4 {
		case 0:
			return float64(r.Intn(3_000_000)) // the stream's integral deltas
		case 1:
			return r.Float64() * 1e7
		case 2:
			return -r.Float64() * 1e5
		}
		return math.Pow(10, 8*r.Float64())
	}
	for i := 0; i < 170_000; i++ {
		checked += cosRowCheck(t, dst, intact, dts(i), geo, zero)
	}
	for i := 0; i < 150_000; i++ {
		if i%64 == 0 {
			randomRow()
		}
		checked += cosRowCheck(t, dst, intact, dts(i), om, ph)
	}

	// k·π/4 and its neighbours, as dt with ω = 1, φ = 0 (the float64
	// argument is then dt itself); the other lanes carry ordinary
	// arguments so the row stays on the vector path.
	copy(om, geo)
	clear(ph)
	om[0], om[9] = 1, 1
	for k := 0; k < 40_000; k++ {
		x := float64(k) * (math.Pi / 4)
		if k >= 20_000 { // sparse large multiples up to the 2^28 limit
			x = float64(k-20_000) * 1.3e4 * (math.Pi / 4)
		}
		for _, dt := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)), -x} {
			checked += cosRowCheck(t, dst, intact, dt, om, ph)
		}
	}

	// Across the vector limit and math.Cos's own threshold, from one
	// lane only and from all of them.
	for _, lim := range []float64{1 << 28, 1 << 29} {
		for _, dt := range []float64{math.Nextafter(lim, 0), lim, math.Nextafter(lim, math.Inf(1)), lim * 1.5, -lim, lim * 1e6, 1e300} {
			checked += cosRowCheck(t, dst, intact, dt, om, ph)
			checked += cosRowCheck(t, dst, intact, dt/float64(geo[5]), geo, zero)
		}
	}
	for _, dt := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324} {
		checked += cosRowCheck(t, dst, intact, dt, geo, zero)
	}
	ph[17] = float32(math.NaN())
	checked += cosRowCheck(t, dst, intact, 12345, om, ph)
	ph[17] = float32(math.Inf(-1))
	checked += cosRowCheck(t, dst, intact, 12345, om, ph)

	// Widths around the eight- and sixteen-column steps.
	for _, w := range []int{1, 7, 8, 9, 15, 16, 17, 24, 40, 100} {
		for off := 0; off < 8; off++ {
			row, ok := guarded(w, off)
			o, _ := guarded(w, (off+1)%8)
			p, _ := guarded(w, (off+2)%8)
			for j := range o {
				o[j] = geo[j%d]
				p[j] = float32(r.Float64())
			}
			checked += cosRowCheck(t, row, ok, float64(r.Intn(1_000_000))+0.5, o, p)
		}
	}
	// One bad argument in each column of rows 8, 16, 24 and 40 wide:
	// in the AVX-512 part of a row, in its AVX2 tail of eight, or in a
	// row the AVX2 kernel takes whole. Each must send the whole row to
	// math.Cos.
	for _, w := range []int{8, 16, 24, 40} {
		row, ok := guarded(w, 2)
		o, p := make([]float32, w), make([]float32, w)
		for j := range o {
			o[j] = geo[j%d]
			p[j] = float32(r.Float64())
		}
		for bad := 0; bad < w; bad++ {
			for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), 1 << 28} {
				keep := p[bad]
				p[bad] = v
				checked += cosRowCheck(t, row, ok, 98765.5, o, p)
				p[bad] = keep
			}
		}
	}
	if checked < 10_000_000 {
		t.Fatalf("checked %d arguments, want at least 10M", checked)
	}
}

// FuzzCosRow: one lane of a vector row is the fuzzed argument, under
// each vector tier; the corpus seeds are the edges the test above walks.
func FuzzCosRow(f *testing.F) {
	for _, dt := range []float64{0, 1, -1, 0.5, 10_000, 2_678_400, math.Pi / 4, 3 * math.Pi / 4, 1 << 28, 1 << 29, 1e300, math.Inf(1), math.NaN()} {
		f.Add(dt, float32(1), float32(0))
		f.Add(dt, float32(1e-3), float32(0.25))
		f.Add(math.Nextafter(dt, 0), float32(1), float32(0))
	}
	geo := tgatOmega(16)
	f.Fuzz(func(t *testing.T, dt float64, omega, phi float32) {
		eachTier(t, func(t *testing.T) {
			dst, intact := guarded(16, 1)
			om := append([]float32(nil), geo...)
			ph := make([]float32, 16)
			om[6], ph[6] = omega, phi
			cosRowCheck(t, dst, intact, dt, om, ph)
		})
	})
}

// TestKernelWrappersRejectShortSlices: the bounds are checked in Go,
// before any pointer reaches the assembly.
func TestKernelWrappersRejectShortSlices(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	f := func(n int) []float32 { return make([]float32, n) }
	mustPanic("AccumRows short w", func() { AccumRows(f(8), f(3), f(2*8+7), 8) })
	mustPanic("AccumRows stride < width", func() { AccumRows(f(8), f(3), f(64), 7) })
	mustPanic("AccumRows4 short y", func() { AccumRows4(f(3*8+7), 8, 8, f(16), 4, 4, f(32), 8) })
	mustPanic("AccumRows4 ldy < width", func() { AccumRows4(f(64), 8, 7, f(16), 4, 4, f(32), 8) })
	mustPanic("AccumRows4 short a", func() { AccumRows4(f(32), 8, 8, f(3*4+3), 4, 4, f(32), 8) })
	mustPanic("AccumRows4 lda < rows", func() { AccumRows4(f(32), 8, 8, f(64), 4, 3, f(32), 8) })
	mustPanic("AccumRows4 short w", func() { AccumRows4(f(32), 8, 8, f(16), 4, 4, f(3*8+7), 8) })
	mustPanic("DotRows short z", func() { DotRows(f(3), f(8), f(2*8+7), 8, []bool{true, true, true}) })
	mustPanic("DotRows short out", func() { DotRows(f(2), f(8), f(24), 8, []bool{true, true, true}) })
	mustPanic("DotRows stride < width", func() { DotRows(f(3), f(8), f(64), 7, []bool{true, true, true}) })
	mustPanic("CosRow short omega", func() { CosRow(f(8), 1, f(7), f(8)) })
	mustPanic("CosRow short phi", func() { CosRow(f(8), 1, f(8), f(7)) })
	w := New(8, 8)
	mustPanic("LinearRowsPacked short pack", func() { LinearRowsPacked(f(8), 1, w, f(63), nil, f(8)) })
}

package tensor

import (
	"fmt"
	"math"

	"tgopt/internal/parallel"
)

// Int8 symmetric quantization. A float32 row x is stored as
// q[i] = clamp(round(x[i]/s), -127, 127) with one scale s = maxabs/127
// per row, so dequantization is the single multiply s·q[i] and the
// representable error is bounded by s/2 per element.
//
// The matmul kernel below does not multiply int8 values one at a time —
// scalar imul throughput would only match the float kernel, not beat
// it. Instead each weight byte is stored biased (u = q+128 ∈ [1,255])
// and THREE of them are packed into 21-bit lanes of one uint64. A
// single 64-bit multiply by a broadcast activation byte then performs
// three MACs at once: lane products are ≤ 255·255 = 65025 < 2¹⁷, so a
// lane can absorb 32 products (32·65025 = 2 080 800 < 2²¹) before the
// kernel drains the lanes into int32 accumulators — one drain per
// 32-step chunk, amortized to noise. The bias is removed after
// accumulation with precomputed row/column byte sums (the standard
// zero-point correction):
//
//	Σ qx·qw = Σ ux·uw − 128·Σux − 128·Σuw + 16384·k
//
// The drained int32 sums are exact for k ≤ 2³¹/65025 ≈ 33 000;
// quantMaxK guards that bound. At the attention shape (m=2048, k=96,
// n=64) this kernel measures ≥2× the float32 blocked kernel's MB/s
// (BenchmarkQuantVsFloatLinear): the 64-bit multiplier
// retires one 3-MAC word per cycle where the float pipeline peaks at
// ~1.3 MAC/cycle, and two activation rows share each streamed weight
// word.
const quantMaxK = 1 << 15

// quantPanelOuts is the kernel's register block: four lane words of
// three outputs each per panel.
const quantPanelOuts = 12

// quantChunk is the number of k-steps a 21-bit lane can accumulate
// before it must be drained (32·255·255 < 2²¹).
const quantChunk = 32

// QuantMat is an int8-quantized, lane-packed weight matrix consumed by
// QuantLinearInto. Logical shape is (Out, In), matching nn.Linear's W,
// and quantization is symmetric per output row. Build one with
// QuantizeMat once at model load/swap — never per request.
type QuantMat struct {
	Out, In int
	// Scales holds the per-output-row dequantization scales.
	Scales []float32
	// lanes is the biased weight bytes packed panel-major:
	// lanes[p·In·4 + kk·4 + t] holds outputs 12p+3t .. 12p+3t+2 at
	// input kk in its three 21-bit lanes. Missing outputs in the last
	// panel are zero lanes, which contribute nothing.
	lanes []uint64
	// colSums[j] is Σ_kk biased-byte(W[j][kk]), the per-output term of
	// the zero-point correction.
	colSums []int32
	nPanels int
}

// QuantizeMat quantizes a float32 weight matrix w (out, in) into the
// packed representation. Rows of all zeros get scale 0 and quantize to
// the zero point exactly, so they dequantize back to zero.
func QuantizeMat(w *Tensor) *QuantMat {
	if w.Rank() != 2 {
		panic("tensor: QuantizeMat requires a rank-2 weight matrix")
	}
	out, in := w.shape[0], w.shape[1]
	if in > quantMaxK {
		panic(fmt.Sprintf("tensor: QuantizeMat inner dimension %d exceeds %d", in, quantMaxK))
	}
	nPanels := (out + quantPanelOuts - 1) / quantPanelOuts
	m := &QuantMat{
		Out:     out,
		In:      in,
		Scales:  make([]float32, out),
		lanes:   make([]uint64, nPanels*in*4),
		colSums: make([]int32, out),
		nPanels: nPanels,
	}
	wd := w.data
	for j := 0; j < out; j++ {
		row := wd[j*in : j*in+in]
		inv, scale := rowQuantScale(row)
		m.Scales[j] = scale
		p := j / quantPanelOuts
		t := (j % quantPanelOuts) / 3
		shift := uint(21 * ((j % quantPanelOuts) % 3))
		var sum int32
		for kk, v := range row {
			u := uint64(biasByte(v, inv))
			sum += int32(u)
			m.lanes[p*in*4+kk*4+t] |= u << shift
		}
		m.colSums[j] = sum
	}
	return m
}

// rowQuantScale returns the quantization multiplier (127/maxabs) and
// the dequantization scale (maxabs/127) for one row. A zero row yields
// (0, 0) so every element quantizes to zero.
func rowQuantScale(row []float32) (inv, scale float32) {
	var maxBits uint32
	for _, v := range row {
		bits := math.Float32bits(v) &^ (1 << 31)
		if bits > maxBits {
			maxBits = bits
		}
	}
	maxAbs := math.Float32frombits(maxBits)
	if maxAbs == 0 {
		return 0, 0
	}
	return 127 / maxAbs, maxAbs / 127
}

// quantByte quantizes one value to a signed int8 given the row
// multiplier, rounding half away from zero.
func quantByte(v, inv float32) int8 {
	f := v * inv
	if f >= 0 {
		f += 0.5
	} else {
		f -= 0.5
	}
	q := int32(f)
	if q > 127 {
		q = 127
	} else if q < -127 {
		q = -127
	}
	return int8(q)
}

// biasByte is quantByte shifted into the kernel's unsigned domain.
func biasByte(v, inv float32) uint8 { return uint8(int32(quantByte(v, inv)) + 128) }

// QuantizeRowsInto quantizes each row of x (m, k) into biased bytes for
// QuantLinearInto. q must have m·k elements, scales and sums m each —
// pass arena slices to keep the call allocation-free. sums receives the
// per-row biased-byte totals the kernel needs for its zero-point
// correction. The rounding is branchless (sign-copied ±0.5 then
// truncate): a branchy round mispredicts on random-sign activations
// and measured ~6× slower.
func QuantizeRowsInto(x *Tensor, q []uint8, scales []float32, sums []int32) {
	if x.Rank() != 2 {
		panic("tensor: QuantizeRowsInto requires a rank-2 input")
	}
	quantizeRows(x.data, x.shape[0], x.shape[1], q, scales, sums)
}

// quantizeRows is QuantizeRowsInto over a raw (m, k) row-major slice.
func quantizeRows(xd []float32, m, k int, q []uint8, scales []float32, sums []int32) {
	if k > quantMaxK {
		panic(fmt.Sprintf("tensor: QuantizeRowsInto inner dimension %d exceeds %d", k, quantMaxK))
	}
	if len(xd) != m*k || len(q) < m*k || len(scales) < m || len(sums) < m {
		panic("tensor: QuantizeRowsInto scratch too small")
	}
	for i := 0; i < m; i++ {
		row := xd[i*k : i*k+k]
		inv, scale := rowQuantScale(row)
		scales[i] = scale
		qrow := q[i*k : i*k+k]
		var sum int32
		for kk, v := range row {
			f := v * inv
			// Round half away from zero without a branch: add ±0.5 with
			// f's sign, then truncate. |f| ≤ 127 by construction (inv =
			// 127/maxabs), so no clamp is needed on finite inputs.
			f += math.Float32frombits(math.Float32bits(f)&(1<<31) | 0x3F000000)
			u := uint8(int32(f) + 128)
			sum += int32(u)
			qrow[kk] = u
		}
		sums[i] = sum
	}
}

// QuantLinearRows is LinearRows through the int8 kernel: it quantizes
// the m rows of x (m, w.In) into the caller's q/scales/sums scratch
// (m·w.In, m and m elements) and computes dst = dequant(x·Wᵀ) + bias
// into dst (m, w.Out), serially on the calling goroutine. Quantization
// is per row and the integer sums are exact, so a row's bits do not
// depend on which call computes it or on the row it is paired with.
func QuantLinearRows(x []float32, m int, w *QuantMat, bias *Tensor, dst []float32, q []uint8, scales []float32, sums []int32) {
	if len(dst) != m*w.Out {
		panic(fmt.Sprintf("tensor: QuantLinearRows dst length %d, want %d", len(dst), m*w.Out))
	}
	quantizeRows(x, m, w.In, q, scales, sums)
	var bd []float32
	if bias != nil {
		if bias.Len() != w.Out {
			panic(fmt.Sprintf("tensor: QuantLinearRows bias length %d, want %d", bias.Len(), w.Out))
		}
		bd = bias.data
	}
	quantLinearRows(q, scales, sums, w, bd, dst, 0, m)
}

// QuantLinearInto computes dst = dequant(x·Wᵀ) + bias for pre-quantized
// activations (q, scales, sums from QuantizeRowsInto; m rows) against a
// packed weight matrix. bias may be nil. dst must be (m, w.Out) and is
// fully overwritten. The row loop parallelizes when
// parallel.WillFanOut(m); all scratch is caller-provided, so the call
// performs zero steady-state allocations.
func QuantLinearInto(q []uint8, scales []float32, sums []int32, m int, w *QuantMat, bias, dst *Tensor) {
	k, n := w.In, w.Out
	if len(q) < m*k || len(scales) < m || len(sums) < m {
		panic("tensor: QuantLinearInto activation scratch too small")
	}
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: QuantLinearInto dst shape %v, want [%d %d]", dst.shape, m, n))
	}
	var bd []float32
	if bias != nil {
		if bias.Len() != n {
			panic(fmt.Sprintf("tensor: QuantLinearInto bias length %d, want %d", bias.Len(), n))
		}
		bd = bias.data
	}
	cd := dst.data
	// Closure built only on the fan-out branch; see MatMulInto.
	if parallel.WillFanOut(m) {
		parallel.ForChunked(m, 0, func(lo, hi int) {
			quantLinearRows(q, scales, sums, w, bd, cd, lo, hi)
		})
	} else {
		quantLinearRows(q, scales, sums, w, bd, cd, 0, m)
	}
}

// quantLinearRows computes output rows [lo,hi): pairs of activation
// rows share each streamed weight word, with a single-row tail.
func quantLinearRows(q []uint8, scales []float32, sums []int32, w *QuantMat, bias, c []float32, lo, hi int) {
	i := lo
	for ; i+2 <= hi; i += 2 {
		quantLinearRowPair(q, scales, sums, w, bias, c, i)
	}
	if i < hi {
		quantLinearRowOne(q, scales, sums, w, bias, c, i)
	}
}

// quantLinearRowPair computes output rows i and i+1. Full 32-step
// chunks run over fixed-size array views so the compiler drops every
// bounds check from the 8-MAC-per-step inner loop.
func quantLinearRowPair(q []uint8, scales []float32, sums []int32, w *QuantMat, bias, c []float32, i int) {
	k, n := w.In, w.Out
	lanes := w.lanes
	corrK := int32(16384 * k)
	urow0 := q[i*k : i*k+k]
	urow1 := q[(i+1)*k : (i+1)*k+k]
	crow0 := c[i*n : i*n+n]
	crow1 := c[(i+1)*n : (i+1)*n+n]
	rc0 := corrK - 128*sums[i]
	rc1 := corrK - 128*sums[i+1]
	sx0, sx1 := scales[i], scales[i+1]
	for p := 0; p < w.nPanels; p++ {
		pb := lanes[p*k*4 : (p+1)*k*4]
		var s0, s1 [quantPanelOuts]int32
		base := 0
		for ; base+quantChunk <= k; base += quantChunk {
			pa := (*[quantChunk * 4]uint64)(pb[base*4 : base*4+quantChunk*4])
			u0 := (*[quantChunk]uint8)(urow0[base : base+quantChunk])
			u1 := (*[quantChunk]uint8)(urow1[base : base+quantChunk])
			var a0, a1, a2, a3, b0, b1, b2, b3 uint64
			for kk := 0; kk < quantChunk; kk += 2 {
				o := kk * 4
				ua := uint64(u0[kk])
				ub := uint64(u1[kk])
				w0 := pa[o]
				a0 += w0 * ua
				b0 += w0 * ub
				w1 := pa[o+1]
				a1 += w1 * ua
				b1 += w1 * ub
				w2 := pa[o+2]
				a2 += w2 * ua
				b2 += w2 * ub
				w3 := pa[o+3]
				a3 += w3 * ua
				b3 += w3 * ub
				ua = uint64(u0[kk+1])
				ub = uint64(u1[kk+1])
				w0 = pa[o+4]
				a0 += w0 * ua
				b0 += w0 * ub
				w1 = pa[o+5]
				a1 += w1 * ua
				b1 += w1 * ub
				w2 = pa[o+6]
				a2 += w2 * ua
				b2 += w2 * ub
				w3 = pa[o+7]
				a3 += w3 * ua
				b3 += w3 * ub
			}
			drainLanes(&s0, a0, a1, a2, a3)
			drainLanes(&s1, b0, b1, b2, b3)
		}
		if base < k {
			var a0, a1, a2, a3, b0, b1, b2, b3 uint64
			for kk := base; kk < k; kk++ {
				o := kk * 4
				ua := uint64(urow0[kk])
				ub := uint64(urow1[kk])
				w0 := pb[o]
				a0 += w0 * ua
				b0 += w0 * ub
				w1 := pb[o+1]
				a1 += w1 * ua
				b1 += w1 * ub
				w2 := pb[o+2]
				a2 += w2 * ua
				b2 += w2 * ub
				w3 := pb[o+3]
				a3 += w3 * ua
				b3 += w3 * ub
			}
			drainLanes(&s0, a0, a1, a2, a3)
			drainLanes(&s1, b0, b1, b2, b3)
		}
		j0 := p * quantPanelOuts
		for t := 0; t < quantPanelOuts && j0+t < n; t++ {
			j := j0 + t
			sw := w.Scales[j]
			cs := 128 * w.colSums[j]
			v0 := sx0 * sw * float32(s0[t]+rc0-cs)
			v1 := sx1 * sw * float32(s1[t]+rc1-cs)
			if bias != nil {
				v0 += bias[j]
				v1 += bias[j]
			}
			crow0[j] = v0
			crow1[j] = v1
		}
	}
}

// quantLinearRowOne is the single-row tail of quantLinearRows.
func quantLinearRowOne(q []uint8, scales []float32, sums []int32, w *QuantMat, bias, c []float32, i int) {
	k, n := w.In, w.Out
	lanes := w.lanes
	corrK := int32(16384 * k)
	urow := q[i*k : i*k+k]
	crow := c[i*n : i*n+n]
	rc := corrK - 128*sums[i]
	sx := scales[i]
	for p := 0; p < w.nPanels; p++ {
		pb := lanes[p*k*4 : (p+1)*k*4]
		var s [quantPanelOuts]int32
		base := 0
		for ; base+quantChunk <= k; base += quantChunk {
			pa := (*[quantChunk * 4]uint64)(pb[base*4 : base*4+quantChunk*4])
			u0 := (*[quantChunk]uint8)(urow[base : base+quantChunk])
			var a0, a1, a2, a3 uint64
			for kk := 0; kk < quantChunk; kk++ {
				o := kk * 4
				ua := uint64(u0[kk])
				a0 += pa[o] * ua
				a1 += pa[o+1] * ua
				a2 += pa[o+2] * ua
				a3 += pa[o+3] * ua
			}
			drainLanes(&s, a0, a1, a2, a3)
		}
		if base < k {
			var a0, a1, a2, a3 uint64
			for kk := base; kk < k; kk++ {
				o := kk * 4
				ua := uint64(urow[kk])
				a0 += pb[o] * ua
				a1 += pb[o+1] * ua
				a2 += pb[o+2] * ua
				a3 += pb[o+3] * ua
			}
			drainLanes(&s, a0, a1, a2, a3)
		}
		j0 := p * quantPanelOuts
		for t := 0; t < quantPanelOuts && j0+t < n; t++ {
			j := j0 + t
			v := sx * w.Scales[j] * float32(s[t]+rc-128*w.colSums[j])
			if bias != nil {
				v += bias[j]
			}
			crow[j] = v
		}
	}
}

// drainLanes unpacks four accumulator words into the panel's twelve
// int32 sums and lets the caller restart the lanes at zero.
func drainLanes(s *[quantPanelOuts]int32, a0, a1, a2, a3 uint64) {
	const mask21 = 1<<21 - 1
	s[0] += int32(a0 & mask21)
	s[1] += int32((a0 >> 21) & mask21)
	s[2] += int32(a0 >> 42)
	s[3] += int32(a1 & mask21)
	s[4] += int32((a1 >> 21) & mask21)
	s[5] += int32(a1 >> 42)
	s[6] += int32(a2 & mask21)
	s[7] += int32((a2 >> 21) & mask21)
	s[8] += int32(a2 >> 42)
	s[9] += int32(a3 & mask21)
	s[10] += int32((a3 >> 21) & mask21)
	s[11] += int32(a3 >> 42)
}

// QuantizeVecInto quantizes one float32 vector to signed int8 with a
// symmetric per-vector scale, returning the scale. This is the memo
// cache's entry payload format (see core's entry codec); the packed
// kernel representation above is unrelated.
func QuantizeVecInto(src []float32, q []int8) float32 {
	if len(q) < len(src) {
		panic("tensor: QuantizeVecInto scratch too small")
	}
	inv, scale := rowQuantScale(src)
	for i, v := range src {
		q[i] = quantByte(v, inv)
	}
	return scale
}

// DequantizeVecInto reconstructs dst[i] = scale·q[i].
func DequantizeVecInto(q []int8, scale float32, dst []float32) {
	if len(dst) < len(q) {
		panic("tensor: DequantizeVecInto dst too small")
	}
	for i, v := range q {
		dst[i] = scale * float32(v)
	}
}

// QuantizeVecBytes is QuantizeVecInto writing the int8 codes into a
// byte slice (two's complement), the representation the memo cache's
// quantized entry payloads and spill records use.
func QuantizeVecBytes(src []float32, dst []byte) float32 {
	if len(dst) < len(src) {
		panic("tensor: QuantizeVecBytes dst too small")
	}
	inv, scale := rowQuantScale(src)
	for i, v := range src {
		dst[i] = byte(quantByte(v, inv))
	}
	return scale
}

// DequantizeVecBytes reconstructs dst[i] = scale·int8(q[i]).
func DequantizeVecBytes(q []byte, scale float32, dst []float32) {
	if len(dst) < len(q) {
		panic("tensor: DequantizeVecBytes dst too small")
	}
	for i, v := range q {
		dst[i] = scale * float32(int8(v))
	}
}

package tensor

import "math"

// Int8 symmetric quantization, the row format of core's int8 stores
// (memo-cache entries, snapshots, the time table). A float32 row x
// is stored as q[i] = clamp(round(x[i]/s), -127, 127) with one scale
// s = maxabs/127 per row, so dequantization is the single multiply
// s·q[i] and the representable error is bounded by s/2 per element.
// Nothing computes on the codes: a row is dequantized when it is read.

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

// QuantizeVecInto quantizes one float32 vector to signed int8 with a
// symmetric per-vector scale, returning the scale.
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
// quantized entry payloads use.
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

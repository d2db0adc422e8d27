package tensor

import (
	"fmt"
	"math"
)

// ReLU returns max(0, a) elementwise.
func ReLU(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		if v > 0 {
			out.data[i] = v
		}
	}
	return out
}

// ReLUInPlace clamps every element of a to max(0, v) and returns a.
func ReLUInPlace(a *Tensor) *Tensor {
	ReLUFloats(a.data)
	return a
}

// ReLUFloats is ReLUInPlace over a raw slice.
func ReLUFloats(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// MaskedSoftmaxLastDimInto computes softmax along the trailing
// dimension into dst, which must have a's element count (a and dst may
// alias). mask[i*w+j] == false marks position j of row i as invalid
// (assigned probability 0, as if its logit were -inf); a fully masked
// row yields all zeros rather than NaN. mask must have a.Len()
// elements.
func MaskedSoftmaxLastDimInto(a *Tensor, mask []bool, dst *Tensor) {
	if len(mask) != a.Len() {
		panic(fmt.Sprintf("tensor: MaskedSoftmaxLastDimInto mask length %d != %d elements", len(mask), a.Len()))
	}
	if dst.Len() != a.Len() {
		panic(fmt.Sprintf("tensor: MaskedSoftmaxLastDimInto dst has %d elements, want %d", dst.Len(), a.Len()))
	}
	w := a.Dim(-1)
	rows := a.Len() / w
	for i := 0; i < rows; i++ {
		softmaxRow(a.data[i*w:(i+1)*w], dst.data[i*w:(i+1)*w], mask[i*w:(i+1)*w])
	}
}

// softmaxRow computes a stable softmax of src into dst, honoring an
// optional validity mask. Invalid entries get probability 0; if every
// entry is invalid, dst stays all zero.
func softmaxRow(src, dst []float32, mask []bool) {
	maxv := float32(math.Inf(-1))
	any := false
	for j, v := range src {
		if mask != nil && !mask[j] {
			continue
		}
		any = true
		if v > maxv {
			maxv = v
		}
	}
	if !any {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	var sum float64
	for j, v := range src {
		if mask != nil && !mask[j] {
			dst[j] = 0
			continue
		}
		e := math.Exp(float64(v - maxv))
		dst[j] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

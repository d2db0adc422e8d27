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

// LeakyReLU returns a where a > 0, otherwise slope*a. TGAT's attention
// uses slope 0.2 (the GAT default) before the softmax.
func LeakyReLU(a *Tensor, slope float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		if v > 0 {
			out.data[i] = v
		} else {
			out.data[i] = slope * v
		}
	}
	return out
}

// Sigmoid returns 1/(1+e^-a) elementwise.
func Sigmoid(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = sigmoid32(v)
	}
	return out
}

func sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Tanh returns tanh(a) elementwise.
func Tanh(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

// SoftmaxLastDim computes a numerically stable softmax along the trailing
// dimension, treating the tensor as (rows, w).
func SoftmaxLastDim(a *Tensor) *Tensor {
	out := New(a.shape...)
	SoftmaxLastDimInto(a, out)
	return out
}

// SoftmaxLastDimInto is SoftmaxLastDim writing into dst, which must
// have a's element count. a and dst may alias.
func SoftmaxLastDimInto(a, dst *Tensor) {
	if dst.Len() != a.Len() {
		panic(fmt.Sprintf("tensor: SoftmaxLastDimInto dst has %d elements, want %d", dst.Len(), a.Len()))
	}
	w := a.Dim(-1)
	rows := a.Len() / w
	for i := 0; i < rows; i++ {
		softmaxRow(a.data[i*w:(i+1)*w], dst.data[i*w:(i+1)*w], nil)
	}
}

// MaskedSoftmaxLastDim computes softmax along the trailing dimension
// where mask[i*w+j] == false marks position j of row i as invalid
// (assigned probability 0, as if its logit were -inf). A fully masked row
// yields all zeros rather than NaN; TGAT uses this for padded neighbor
// slots of nodes with no temporal neighbors. mask must have a.Len()
// elements.
func MaskedSoftmaxLastDim(a *Tensor, mask []bool) *Tensor {
	out := New(a.shape...)
	MaskedSoftmaxLastDimInto(a, mask, out)
	return out
}

// MaskedSoftmaxLastDimInto is MaskedSoftmaxLastDim writing into dst,
// which must have a's element count. a and dst may alias.
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

// LogSigmoid returns log(sigmoid(a)) elementwise, computed stably as
// -softplus(-a). Used by the binary-cross-entropy loss in training.
func LogSigmoid(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(-softplus(-float64(v)))
	}
	return out
}

// softplus computes log(1+e^x) without overflow.
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

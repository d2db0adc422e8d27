// Package tensor implements the dense float32 tensor substrate that the
// rest of the repository is built on. It stands in for the subset of
// PyTorch that the original TGOpt implementation relies on: contiguous
// row-major tensors, (batched) matrix multiplication, elementwise
// arithmetic with simple broadcasting, activations, masked softmax,
// gathers, concatenation, and reductions.
//
// Tensors are always contiguous and row-major. Shapes are small int
// slices; rank is typically 1–3. Operations allocate their results
// unless they have an explicit *Into variant that writes into a caller
// supplied destination, which the hot inference paths use to avoid
// garbage-collector pressure.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense, contiguous, row-major array of float32 values.
type Tensor struct {
	shape []int
	data  []float32
}

// New creates a zero-filled tensor of the given shape. A rank-0 shape is
// rejected; scalars are represented as shape [1].
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// retained, not copied; len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		// Clone shape for the message so the panic path does not leak the
		// parameter (which would force callers' variadic slices onto the heap).
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (%d elements)", len(data), append([]int(nil), shape...), n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full creates a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones creates a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Scalar creates a shape-[1] tensor holding v.
func Scalar(v float32) *Tensor { return FromSlice([]float32{v}, 1) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Clone: keeps the shape parameter non-escaping (hot callers pass
			// stack-allocated variadic slices).
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", append([]int(nil), shape...)))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's shape. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i, supporting negative indices
// counted from the end (Dim(-1) is the last dimension).
func (t *Tensor) Dim(i int) int {
	if i < 0 {
		i += len(t.shape)
	}
	return t.shape[i]
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Row returns a view of row i of a rank-2 tensor as a slice of length
// Dim(1). The slice aliases the tensor's storage.
func (t *Tensor) Row(i int) []float32 {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on rank-%d tensor", len(t.shape)))
	}
	w := t.shape[1]
	return t.data[i*w : (i+1)*w]
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: d}
}

// Reshape returns a view with a new shape sharing the same storage. The
// element count must be unchanged. One dimension may be -1, in which
// case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	n := 1
	for i, d := range shape {
		switch {
		case d == -1:
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: Reshape with negative dimension %d", d))
		default:
			n *= d
		}
	}
	if infer >= 0 {
		if n == 0 || len(t.data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		shape[infer] = len(t.data) / n
		n = len(t.data)
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: shape, data: t.data}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// CopyFrom copies src's contents into t. Shapes must have equal element
// counts (shape itself is not checked, enabling reshape-free copies).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %d vs %d", len(src.data), len(t.data)))
	}
	copy(t.data, src.data)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute elementwise difference between
// t and o, which must have the same element count. It is the metric used
// by the semantics-preservation tests (the paper validates TGOpt against
// the baseline within 1e-5..1e-6).
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if len(t.data) != len(o.data) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff size mismatch %d vs %d", len(t.data), len(o.data)))
	}
	maxd := 0.0
	for i := range t.data {
		d := math.Abs(float64(t.data[i]) - float64(o.data[i]))
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// AllClose reports whether every element of t is within tol of o.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool { return t.MaxAbsDiff(o) <= tol }

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
	}
	return false
}

// String renders a compact, shape-prefixed representation. Large tensors
// are elided.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	limit := len(t.data)
	if limit > 8 {
		limit = 8
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if len(t.data) > limit {
		fmt.Fprintf(&b, " ... (%d total)", len(t.data))
	}
	b.WriteString("]")
	return b.String()
}

// Package autograd implements tape-based reverse-mode automatic
// differentiation over internal/tensor, standing in for the slice of
// PyTorch autograd that TGAT training needs. Values form a DAG as
// operations execute; Backward topologically sorts the tape and
// accumulates gradients into every parameter leaf.
//
// The op set is exactly what the TGAT forward pass uses: linear layers
// (MatMulT + AddRowBias), concatenation, row slicing/gathering, ReLU,
// the cosine time encoding (CosAffine), the multi-head temporal
// attention kernel (Attend, with a hand-written backward), and the
// binary-cross-entropy-with-logits loss. Parameters are wrapped
// tensor.Tensors shared with the inference layers in internal/nn, so a
// trained model is immediately usable for inference without conversion.
package autograd

import (
	"fmt"

	"tgopt/internal/tensor"
)

// Value is a node in the autodiff tape: a tensor plus (if reachable from
// a parameter) a gradient buffer and a backward closure.
type Value struct {
	T            *tensor.Tensor
	grad         *tensor.Tensor
	requiresGrad bool
	back         func()
	prev         []*Value
}

// Param wraps t as a trainable leaf: gradients accumulate into Grad().
func Param(t *tensor.Tensor) *Value {
	return &Value{T: t, requiresGrad: true}
}

// Const wraps t as a non-trainable leaf; no gradient flows into it.
func Const(t *tensor.Tensor) *Value {
	return &Value{T: t}
}

// Grad returns the accumulated gradient, or nil if none has been
// produced (no Backward yet, or not reachable from the loss).
func (v *Value) Grad() *tensor.Tensor { return v.grad }

func (v *Value) ensureGrad() *tensor.Tensor {
	if v.grad == nil {
		v.grad = tensor.New(v.T.Shape()...)
	}
	return v.grad
}

// newOp builds a non-leaf value; back is only retained if some input
// requires grad.
func newOp(t *tensor.Tensor, back func(), prev ...*Value) *Value {
	out := &Value{T: t, prev: prev}
	for _, p := range prev {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.back = back
	}
	return out
}

// Backward runs reverse-mode differentiation from v. For a scalar
// (1-element) value the seed gradient is 1; otherwise seed must be
// provided via BackwardWith.
func (v *Value) Backward() {
	if v.T.Len() != 1 {
		panic("autograd: Backward on non-scalar; use BackwardWith")
	}
	seed := tensor.Ones(v.T.Shape()...)
	v.BackwardWith(seed)
}

// BackwardWith seeds v's gradient with the given tensor (same element
// count) and propagates through the tape.
func (v *Value) BackwardWith(seed *tensor.Tensor) {
	if seed.Len() != v.T.Len() {
		panic(fmt.Sprintf("autograd: seed has %d elements, value has %d", seed.Len(), v.T.Len()))
	}
	if !v.requiresGrad {
		return
	}
	// Topological order via iterative DFS.
	var topo []*Value
	visited := map[*Value]bool{}
	type frame struct {
		v *Value
		i int
	}
	stack := []frame{{v, 0}}
	visited[v] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.v.prev) {
			child := f.v.prev[f.i]
			f.i++
			if !visited[child] && child.requiresGrad {
				visited[child] = true
				stack = append(stack, frame{child, 0})
			}
			continue
		}
		topo = append(topo, f.v)
		stack = stack[:len(stack)-1]
	}
	tensor.AddInPlace(v.ensureGrad(), seed)
	// topo is child-before-parent; walk in reverse (v first).
	for i := len(topo) - 1; i >= 0; i-- {
		n := topo[i]
		if n.back != nil && n.grad != nil {
			n.back()
		}
	}
}

// MatMulT computes x·Wᵀ (the nn.Linear kernel) for x (n, in) and
// w (out, in), producing (n, out).
func MatMulT(x, w *Value) *Value {
	out := tensor.MatMulT(x.T, w.T)
	o := newOp(out, nil, x, w)
	if o.requiresGrad {
		o.back = func() {
			if x.requiresGrad {
				// dx = dy · W
				tensor.AddInPlace(x.ensureGrad(), tensor.MatMul(o.grad, w.T))
			}
			if w.requiresGrad {
				// dW = dyᵀ · x
				tensor.AddInPlace(w.ensureGrad(), tensor.MatMul(tensor.Transpose(o.grad), x.T))
			}
		}
	}
	return o
}

// AddRowBias adds bias b (len d) to every row of x (n, d).
func AddRowBias(x, b *Value) *Value {
	out := tensor.AddRowBias(x.T, b.T)
	o := newOp(out, nil, x, b)
	if o.requiresGrad {
		o.back = func() {
			if x.requiresGrad {
				tensor.AddInPlace(x.ensureGrad(), o.grad)
			}
			if b.requiresGrad {
				tensor.AddInPlace(b.ensureGrad(), tensor.SumRows(o.grad))
			}
		}
	}
	return o
}

// Linear is MatMulT followed by AddRowBias (bias may be nil).
func Linear(x, w, b *Value) *Value {
	y := MatMulT(x, w)
	if b == nil {
		return y
	}
	return AddRowBias(y, b)
}

// ReLU applies max(0, x).
func ReLU(x *Value) *Value {
	o := newOp(tensor.ReLU(x.T), nil, x)
	if o.requiresGrad {
		o.back = func() {
			g := x.ensureGrad()
			xd, od, gd := x.T.Data(), o.grad.Data(), g.Data()
			for i := range xd {
				if xd[i] > 0 {
					gd[i] += od[i]
				}
			}
		}
	}
	return o
}

// ConcatCols concatenates rank-2 values along columns.
func ConcatCols(vs ...*Value) *Value {
	ts := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		ts[i] = v.T
	}
	out := tensor.ConcatCols(ts...)
	o := newOp(out, nil, vs...)
	if o.requiresGrad {
		widths := make([]int, len(vs))
		for i, v := range vs {
			widths[i] = v.T.Dim(1)
		}
		o.back = func() {
			parts := tensor.SplitCols(o.grad, widths...)
			for i, v := range vs {
				if v.requiresGrad {
					tensor.AddInPlace(v.ensureGrad(), parts[i])
				}
			}
		}
	}
	return o
}

// SliceRows returns rows [lo, hi) of a rank-2 value as a new value.
func SliceRows(x *Value, lo, hi int) *Value {
	d := x.T.Dim(1)
	out := tensor.FromSlice(append([]float32(nil), x.T.Data()[lo*d:hi*d]...), hi-lo, d)
	o := newOp(out, nil, x)
	if o.requiresGrad {
		o.back = func() {
			g := x.ensureGrad()
			gd, od := g.Data(), o.grad.Data()
			for i := range od {
				gd[lo*d+i] += od[i]
			}
		}
	}
	return o
}

// GatherRows selects rows of x (rank 2) by index; gradients scatter-add
// back into the source (accumulating across duplicate indices).
func GatherRows(x *Value, idx []int32) *Value {
	d := x.T.Dim(1)
	out := tensor.New(len(idx), d)
	src, dst := x.T.Data(), out.Data()
	for i, r := range idx {
		copy(dst[i*d:(i+1)*d], src[int(r)*d:(int(r)+1)*d])
	}
	o := newOp(out, nil, x)
	if o.requiresGrad {
		o.back = func() {
			g := x.ensureGrad()
			gd, od := g.Data(), o.grad.Data()
			for i, r := range idx {
				row := gd[int(r)*d : (int(r)+1)*d]
				orow := od[i*d : (i+1)*d]
				for j := range row {
					row[j] += orow[j]
				}
			}
		}
	}
	return o
}

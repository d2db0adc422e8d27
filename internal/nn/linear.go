package nn

import (
	"tgopt/internal/tensor"
)

// Linear is a fully connected layer y = x·Wᵀ + b with the PyTorch
// nn.Linear weight layout W (out, in).
type Linear struct {
	W *tensor.Tensor // (out, in)
	B *tensor.Tensor // (out), nil for no bias
}

// NewLinear creates a Xavier-initialized linear layer.
func NewLinear(r *tensor.RNG, in, out int, bias bool) *Linear {
	l := &Linear{W: tensor.New(out, in)}
	tensor.XavierUniform(r, l.W)
	if bias {
		l.B = tensor.New(out)
	}
	return l
}

// In returns the input dimensionality.
func (l *Linear) In() int { return l.W.Dim(1) }

// Out returns the output dimensionality.
func (l *Linear) Out() int { return l.W.Dim(0) }

// ForwardWith applies the layer to x of shape (n, in), producing
// (n, out). The output, and the per-call weight pack of the vector
// kernel, are drawn from ar (heap when ar is nil). The result is
// invalidated by ar.Reset.
func (l *Linear) ForwardWith(ar *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
	dst := ar.Tensor(x.Dim(0), l.Out())
	tensor.LinearIntoWith(ar, x, l.W, l.B, dst)
	return dst
}

// Params returns the trainable tensors (bias omitted when absent).
func (l *Linear) Params() []*tensor.Tensor {
	if l.B == nil {
		return []*tensor.Tensor{l.W}
	}
	return []*tensor.Tensor{l.W, l.B}
}

// MergeLayer is TGAT's two-layer feed-forward update network
// FFN(a ‖ b) = W2·ReLU(W1·[a‖b] + b1) + b2 (Eq. 7 of the paper). It is
// used both as the per-layer feature update and, with output dim 1, as
// the link-prediction affinity head.
type MergeLayer struct {
	FC1 *Linear
	FC2 *Linear
}

// NewMergeLayer builds a merge layer taking inputs of widths dim1 and
// dim2, with hidden width hidden and output width out.
func NewMergeLayer(r *tensor.RNG, dim1, dim2, hidden, out int) *MergeLayer {
	return &MergeLayer{
		FC1: NewLinear(r, dim1+dim2, hidden, true),
		FC2: NewLinear(r, hidden, out, true),
	}
}

// Forward computes the merge of a (n, dim1) and b (n, dim2).
func (m *MergeLayer) Forward(a, b *tensor.Tensor) *tensor.Tensor {
	return m.ForwardWith(nil, a, b)
}

// ForwardWith is Forward with every intermediate and the output drawn
// from ar (heap when ar is nil). The result is invalidated by ar.Reset.
// The weights are packed into ar for this call.
func (m *MergeLayer) ForwardWith(ar *tensor.Arena, a, b *tensor.Tensor) *tensor.Tensor {
	pack := PackMerge(ar, m)
	return m.ForwardPacked(ar, &pack, a, b)
}

// MergePack holds tensor.PackLinear of a merge layer's FC1 and FC2; a
// nil entry runs that projection's scalar kernel to the same bits. Like
// LayerPack it is a copy, stale after any write to the weights.
type MergePack struct {
	fc1, fc2 []float32
}

// PackMerge packs m's projections into ar (heap when ar is nil).
func PackMerge(ar *tensor.Arena, m *MergeLayer) MergePack {
	return MergePack{fc1: tensor.PackLinear(ar, m.FC1.W), fc2: tensor.PackLinear(ar, m.FC2.W)}
}

// ForwardPacked is ForwardWith over pack, which PackMerge made from m's
// current weights.
func (m *MergeLayer) ForwardPacked(ar *tensor.Arena, pack *MergePack, a, b *tensor.Tensor) *tensor.Tensor {
	x := ar.Tensor(a.Dim(0), a.Dim(1)+b.Dim(1))
	tensor.ConcatColsInto(x, a, b)
	h := ar.Tensor(x.Dim(0), m.FC1.Out())
	tensor.LinearIntoPacked(x, m.FC1.W, pack.fc1, m.FC1.B, h)
	tensor.ReLUInPlace(h)
	out := ar.Tensor(h.Dim(0), m.FC2.Out())
	tensor.LinearIntoPacked(h, m.FC2.W, pack.fc2, m.FC2.B, out)
	return out
}

// Params returns the trainable tensors of both sublayers.
func (m *MergeLayer) Params() []*tensor.Tensor {
	return append(m.FC1.Params(), m.FC2.Params()...)
}

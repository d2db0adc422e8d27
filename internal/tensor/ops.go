package tensor

import "fmt"

// binaryCheck panics unless a and b have the same element count.
func binaryCheck(op string, a, b *Tensor) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s size mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// AddInPlace sets a = a + b elementwise and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	binaryCheck("AddInPlace", a, b)
	for i := range a.data {
		a.data[i] += b.data[i]
	}
	return a
}

// ScaleInPlace multiplies every element of a by s and returns a.
func ScaleInPlace(a *Tensor, s float32) *Tensor {
	for i := range a.data {
		a.data[i] *= s
	}
	return a
}

// AddRowBias adds bias (shape [w]) to every row of a rank-2 or rank-3
// tensor whose trailing dimension is w, returning a new tensor.
func AddRowBias(a, bias *Tensor) *Tensor {
	w := a.Dim(-1)
	if bias.Len() != w {
		panic(fmt.Sprintf("tensor: AddRowBias bias length %d != trailing dim %d", bias.Len(), w))
	}
	out := New(a.shape...)
	for base := 0; base < len(a.data); base += w {
		for j := 0; j < w; j++ {
			out.data[base+j] = a.data[base+j] + bias.data[j]
		}
	}
	return out
}

// addRowBias adds bias to every len(bias)-wide row of data. The vector
// kernel takes the leading columns as row += 1·bias: the product is
// exact, so the sum is the scalar loop's.
func addRowBias(data, bias []float32) {
	w := len(bias)
	for base := 0; base < len(data); base += w {
		row := data[base : base+w]
		for j := accumRowsVec(row, unit, bias, w); j < w; j++ {
			row[j] += bias[j]
		}
	}
}

// unit is the one coefficient of addRowBias's accumulate.
var unit = []float32{1}

// Sum returns the sum of all elements (accumulated in float64 for
// stability).
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// SumRows reduces a rank-2 tensor (n, w) along dim 0, returning shape [w].
func SumRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SumRows requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	out := New(w)
	for i := 0; i < n; i++ {
		row := a.data[i*w : (i+1)*w]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	out := New(w, n)
	for i := 0; i < n; i++ {
		for j := 0; j < w; j++ {
			out.data[j*n+i] = a.data[i*w+j]
		}
	}
	return out
}

// ConcatCols concatenates rank-2 tensors with equal row counts along the
// column (trailing) dimension.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	n := ts[0].shape[0]
	total := 0
	for _, t := range ts {
		if t.Rank() != 2 {
			panic("tensor: ConcatCols requires rank 2")
		}
		if t.shape[0] != n {
			panic(fmt.Sprintf("tensor: ConcatCols row mismatch %d vs %d", t.shape[0], n))
		}
		total += t.shape[1]
	}
	out := New(n, total)
	ConcatColsInto(out, ts...)
	return out
}

// ConcatColsInto is ConcatCols writing into dst, which must have shape
// (rows, Σ widths).
func ConcatColsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatColsInto of nothing")
	}
	n := ts[0].shape[0]
	total := dst.shape[1]
	sum := 0
	for _, t := range ts {
		if t.Rank() != 2 || t.shape[0] != n {
			panic("tensor: ConcatColsInto operand shape mismatch")
		}
		sum += t.shape[1]
	}
	if dst.Rank() != 2 || dst.shape[0] != n || sum != total {
		panic(fmt.Sprintf("tensor: ConcatColsInto dst shape %v, want [%d %d]", dst.shape, n, sum))
	}
	for i := 0; i < n; i++ {
		row := dst.data[i*total : (i+1)*total]
		off := 0
		for _, t := range ts {
			w := t.shape[1]
			copy(row[off:off+w], t.data[i*w:(i+1)*w])
			off += w
		}
	}
}

// SplitCols splits a rank-2 tensor into pieces with the given column
// widths, which must sum to Dim(1). Each piece is a fresh tensor.
func SplitCols(a *Tensor, widths ...int) []*Tensor {
	if a.Rank() != 2 {
		panic("tensor: SplitCols requires rank 2")
	}
	n, w := a.shape[0], a.shape[1]
	sum := 0
	for _, wd := range widths {
		sum += wd
	}
	if sum != w {
		panic(fmt.Sprintf("tensor: SplitCols widths %v do not sum to %d", widths, w))
	}
	outs := make([]*Tensor, len(widths))
	off := 0
	for k, wd := range widths {
		out := New(n, wd)
		for i := 0; i < n; i++ {
			copy(out.data[i*wd:(i+1)*wd], a.data[i*w+off:i*w+off+wd])
		}
		outs[k] = out
		off += wd
	}
	return outs
}

func dot32(a, b []float32) float32 {
	var s float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestReLUAndLeaky(t *testing.T) {
	a := FromSlice([]float32{-2, -0.5, 0, 1, 3}, 5)
	r := ReLU(a)
	want := []float32{0, 0, 0, 1, 3}
	for i, v := range r.Data() {
		if v != want[i] {
			t.Fatalf("ReLU[%d] = %v, want %v", i, v, want[i])
		}
	}
	l := LeakyReLU(a, 0.2)
	wantL := []float32{-0.4, -0.1, 0, 1, 3}
	for i, v := range l.Data() {
		if math.Abs(float64(v-wantL[i])) > 1e-6 {
			t.Fatalf("LeakyReLU[%d] = %v, want %v", i, v, wantL[i])
		}
	}
}

func TestSigmoidBounds(t *testing.T) {
	a := FromSlice([]float32{-100, -1, 0, 1, 100}, 5)
	s := Sigmoid(a)
	if s.At(2) != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s.At(2))
	}
	for i, v := range s.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid[%d] = %v out of [0,1]", i, v)
		}
	}
	if s.At(0) > 1e-6 || s.At(4) < 1-1e-6 {
		t.Fatal("sigmoid saturation wrong")
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := NewRNG(10)
	prop := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		rows, w := 1+rr.Intn(8), 1+rr.Intn(16)
		a := Randn(r, rows, w)
		s := SoftmaxLastDim(a)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for j := 0; j < w; j++ {
				v := float64(s.At(i, j))
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	a := FromSlice([]float32{1000, 1001, 999}, 1, 3)
	s := SoftmaxLastDim(a)
	if s.HasNaN() {
		t.Fatal("softmax overflowed with large logits")
	}
	if s.At(0, 1) <= s.At(0, 0) || s.At(0, 0) <= s.At(0, 2) {
		t.Fatal("softmax ordering violated")
	}
}

func TestMaskedSoftmaxZeroesInvalid(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	mask := []bool{true, false, true, false}
	s := MaskedSoftmaxLastDim(a, mask)
	if s.At(0, 1) != 0 || s.At(0, 3) != 0 {
		t.Fatalf("masked entries nonzero: %v", s.Data())
	}
	if math.Abs(float64(s.At(0, 0)+s.At(0, 2))-1) > 1e-5 {
		t.Fatalf("valid entries do not sum to 1: %v", s.Data())
	}
}

func TestMaskedSoftmaxFullyMaskedRowIsZero(t *testing.T) {
	a := FromSlice([]float32{5, 6}, 1, 2)
	s := MaskedSoftmaxLastDim(a, []bool{false, false})
	if s.At(0, 0) != 0 || s.At(0, 1) != 0 {
		t.Fatalf("fully masked row should be zero, got %v", s.Data())
	}
	if s.HasNaN() {
		t.Fatal("fully masked row produced NaN")
	}
}

func TestMaskedSoftmaxMatchesUnmaskedWhenAllValid(t *testing.T) {
	r := NewRNG(11)
	a := Randn(r, 3, 5)
	mask := make([]bool, 15)
	for i := range mask {
		mask[i] = true
	}
	if !MaskedSoftmaxLastDim(a, mask).AllClose(SoftmaxLastDim(a), 1e-7) {
		t.Fatal("all-valid masked softmax differs from plain softmax")
	}
}

func TestLogSigmoidStable(t *testing.T) {
	a := FromSlice([]float32{-80, 0, 80}, 3)
	ls := LogSigmoid(a)
	if ls.HasNaN() {
		t.Fatal("LogSigmoid produced NaN/Inf")
	}
	if math.Abs(float64(ls.At(1))-math.Log(0.5)) > 1e-6 {
		t.Fatalf("LogSigmoid(0) = %v", ls.At(1))
	}
	if ls.At(2) > 0 || ls.At(2) < -1e-6 {
		t.Fatalf("LogSigmoid(80) = %v, want ~0-", ls.At(2))
	}
	if math.Abs(float64(ls.At(0))+80) > 1 {
		t.Fatalf("LogSigmoid(-80) = %v, want ~-80", ls.At(0))
	}
}

func TestCosSinExpLog(t *testing.T) {
	a := FromSlice([]float32{0, float32(math.Pi)}, 2)
	c := Cos(a)
	if math.Abs(float64(c.At(0))-1) > 1e-6 || math.Abs(float64(c.At(1))+1) > 1e-6 {
		t.Fatalf("Cos wrong: %v", c.Data())
	}
	s := Sin(a)
	if math.Abs(float64(s.At(0))) > 1e-6 {
		t.Fatalf("Sin wrong: %v", s.Data())
	}
	e := Exp(FromSlice([]float32{0, 1}, 2))
	if math.Abs(float64(e.At(1))-math.E) > 1e-5 {
		t.Fatalf("Exp wrong: %v", e.Data())
	}
	l := Log(FromSlice([]float32{1, float32(math.E)}, 2))
	if math.Abs(float64(l.At(1))-1) > 1e-5 {
		t.Fatalf("Log wrong: %v", l.Data())
	}
}

func TestTanhRange(t *testing.T) {
	a := FromSlice([]float32{-10, 0, 10}, 3)
	h := Tanh(a)
	if h.At(1) != 0 || h.At(0) >= -0.999 || h.At(2) <= 0.999 {
		t.Fatalf("Tanh wrong: %v", h.Data())
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

// Cos returns cos(a) elementwise.
func Cos(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Cos(float64(v)))
	}
	return out
}

// Sin returns sin(a) elementwise.
func Sin(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Sin(float64(v)))
	}
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Exp(float64(v)))
	}
	return out
}

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor {
	out := New(a.shape...)
	for i, v := range a.data {
		out.data[i] = float32(math.Log(float64(v)))
	}
	return out
}

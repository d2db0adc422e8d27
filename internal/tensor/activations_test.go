package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestReLU(t *testing.T) {
	a := FromSlice([]float32{-2, -0.5, 0, 1, 3}, 5)
	r := ReLU(a)
	want := []float32{0, 0, 0, 1, 3}
	for i, v := range r.Data() {
		if v != want[i] {
			t.Fatalf("ReLU[%d] = %v, want %v", i, v, want[i])
		}
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

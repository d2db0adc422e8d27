package tensor

import (
	"math"
	"testing"
)

func TestQuantizeVecRoundTrip(t *testing.T) {
	r := NewRNG(31)
	src := Randn(r, 1, 64).Data()
	q := make([]int8, len(src))
	scale := QuantizeVecInto(src, q)
	if scale <= 0 {
		t.Fatalf("scale %g, want > 0", scale)
	}
	dst := make([]float32, len(src))
	DequantizeVecInto(q, scale, dst)
	// Symmetric rounding bounds the per-element error by half a step.
	bound := float64(scale)/2 + 1e-6
	for i := range src {
		if d := math.Abs(float64(src[i] - dst[i])); d > bound {
			t.Errorf("elem %d: round-trip error %g exceeds %g", i, d, bound)
		}
	}
	// The max-magnitude element hits the end of the int8 range exactly.
	var maxQ int8
	for _, v := range q {
		if v > maxQ {
			maxQ = v
		} else if -v > maxQ {
			maxQ = -v
		}
	}
	if maxQ != 127 {
		t.Errorf("max |q| = %d, want 127", maxQ)
	}
}

func TestQuantizeVecZeroRow(t *testing.T) {
	src := make([]float32, 8)
	q := make([]int8, 8)
	if scale := QuantizeVecInto(src, q); scale != 0 {
		t.Fatalf("zero row scale %g, want 0", scale)
	}
	for _, v := range q {
		if v != 0 {
			t.Fatal("zero row quantized to nonzero")
		}
	}
	dst := make([]float32, 8)
	DequantizeVecInto(q, 0, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("zero row did not dequantize to zero")
		}
	}
}

// The row-format helpers run on every int8 cache store and lookup: with
// caller-provided buffers they do not allocate.
func TestQuantKernelAllocs(t *testing.T) {
	src := Randn(NewRNG(37), 1, 96).Data()
	qv := make([]int8, 96)
	qb := make([]byte, 96)
	fv := make([]float32, 96)
	for name, fn := range map[string]func(){
		"QuantizeVecInto":    func() { QuantizeVecInto(src, qv) },
		"DequantizeVecInto":  func() { DequantizeVecInto(qv, 0.01, fv) },
		"QuantizeVecBytes":   func() { QuantizeVecBytes(src, qb) },
		"DequantizeVecBytes": func() { DequantizeVecBytes(qb, 0.01, fv) },
	} {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

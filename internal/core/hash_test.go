package core

import (
	"testing"
	"testing/quick"

	"tgopt/internal/tensor"
)

func TestKeyPacksNodeAndTime(t *testing.T) {
	if Key(0, 0) != 0 {
		t.Fatalf("Key(0,0) = %#x", Key(0, 0))
	}
	if Key(1, 0) != 1<<32 {
		t.Fatalf("Key(1,0) = %#x", Key(1, 0))
	}
	if Key(0, 1) != 1 {
		t.Fatalf("Key(0,1) = %#x", Key(0, 1))
	}
	if Key(2, 3) != 2<<32|3 {
		t.Fatalf("Key(2,3) = %#x", Key(2, 3))
	}
}

func TestKeyCollisionFreeProperty(t *testing.T) {
	// §4.1: for 32-bit nodes and integral 32-bit timestamps the packing
	// is injective: distinct pairs yield distinct keys.
	prop := func(n1, n2 int32, t1, t2 uint32) bool {
		if n1 < 0 {
			n1 = -n1
		}
		if n2 < 0 {
			n2 = -n2
		}
		k1 := Key(n1, float64(t1))
		k2 := Key(n2, float64(t2))
		same := n1 == n2 && t1 == t2
		return (k1 == k2) == same
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRoundTripComponents(t *testing.T) {
	k := Key(123456, 987654321)
	if k>>32 != 123456 || uint32(k) != 987654321 {
		t.Fatalf("components do not round-trip: %#x", k)
	}
}

func TestComputeKeysMatchesScalar(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, n := range []int{0, 1, 100, 1784} {
		nodes := make([]int32, n)
		ts := make([]float64, n)
		for i := range nodes {
			nodes[i] = int32(r.Intn(1 << 20))
			ts[i] = float64(r.Intn(1 << 30))
		}
		keys := ComputeKeys(nodes, ts)
		for i := range keys {
			if keys[i] != Key(nodes[i], ts[i]) {
				t.Fatalf("n=%d: key %d mismatch", n, i)
			}
		}
	}
}

// ComputeKeys computes the cache key of every ⟨node, t⟩ pair.
func ComputeKeys(nodes []int32, ts []float64) []uint64 {
	keys := make([]uint64, len(nodes))
	ComputeKeysInto(keys, nodes, ts)
	return keys
}

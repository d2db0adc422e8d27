package core

import (
	"testing"
	"testing/quick"

	"tgopt/internal/tensor"
)

func TestDedupFilterSimple(t *testing.T) {
	nodes := []int32{5, 7, 5, 9, 7, 5}
	ts := []float64{1, 2, 1, 3, 2, 4}
	res := DedupFilter(nodes, ts)
	// Unique pairs in first-appearance order: (5,1) (7,2) (9,3) (5,4).
	if res.Unique() != 4 {
		t.Fatalf("unique = %d, want 4", res.Unique())
	}
	wantNodes := []int32{5, 7, 9, 5}
	wantTs := []float64{1, 2, 3, 4}
	for i := range wantNodes {
		if res.Nodes[i] != wantNodes[i] || res.Times[i] != wantTs[i] {
			t.Fatalf("unique[%d] = (%d,%v)", i, res.Nodes[i], res.Times[i])
		}
	}
	wantInv := []int32{0, 1, 0, 2, 1, 3}
	for i := range wantInv {
		if res.InvIdx[i] != wantInv[i] {
			t.Fatalf("invIdx[%d] = %d, want %d", i, res.InvIdx[i], wantInv[i])
		}
	}
}

func TestDedupFilterNoDuplicates(t *testing.T) {
	nodes := []int32{1, 2, 3}
	ts := []float64{1, 1, 1}
	res := DedupFilter(nodes, ts)
	if res.Unique() != 3 {
		t.Fatalf("unique = %d", res.Unique())
	}
	for i, v := range res.InvIdx {
		if v != int32(i) {
			t.Fatal("identity inverse expected")
		}
	}
}

func TestDedupFilterEmptyAndMismatch(t *testing.T) {
	res := DedupFilter(nil, nil)
	if res.Unique() != 0 || len(res.InvIdx) != 0 {
		t.Fatal("empty input mishandled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	DedupFilter([]int32{1}, nil)
}

func TestDedupInvertRestoresBatch(t *testing.T) {
	nodes := []int32{5, 7, 5, 9, 7}
	ts := []float64{1, 2, 1, 3, 2}
	res := DedupFilter(nodes, ts)
	// Fabricate per-unique-row embeddings: row r filled with value r.
	d := 3
	h := tensor.New(res.Unique(), d)
	for r := 0; r < res.Unique(); r++ {
		for j := 0; j < d; j++ {
			h.Set(float32(r), r, j)
		}
	}
	out := DedupInvert(h, res.InvIdx)
	if out.Dim(0) != 5 || out.Dim(1) != d {
		t.Fatalf("invert shape %v", out.Shape())
	}
	want := []float32{0, 1, 0, 2, 1}
	for i := range want {
		if out.At(i, 0) != want[i] {
			t.Fatalf("invert row %d = %v, want %v", i, out.At(i, 0), want[i])
		}
	}
}

// dedupRoundTripProperty checks, for any batch, that expanding the
// unique rows through the inverse index reproduces each original pair's
// values — the semantics-preservation contract of §4.1.
func dedupRoundTripProperty(t *testing.T, filter func([]int32, []float64) *DedupResult) {
	t.Helper()
	prop := func(seed uint32, nRaw uint8) bool {
		r := tensor.NewRNG(uint64(seed))
		n := int(nRaw)%200 + 1
		nodes := make([]int32, n)
		ts := make([]float64, n)
		for i := range nodes {
			nodes[i] = int32(r.Intn(10)) // force duplicates
			ts[i] = float64(r.Intn(5))
		}
		res := filter(nodes, ts)
		if len(res.InvIdx) != n {
			return false
		}
		// No duplicates among unique pairs.
		seen := map[uint64]bool{}
		for i := range res.Nodes {
			k := Key(res.Nodes[i], res.Times[i])
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		// Inverse maps every original pair to its own value.
		for i := range nodes {
			u := res.InvIdx[i]
			if res.Nodes[u] != nodes[i] || res.Times[u] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupFilterRoundTripProperty(t *testing.T) {
	dedupRoundTripProperty(t, DedupFilter)
}

func TestDuplicationRatio(t *testing.T) {
	if r := DuplicationRatio([]int32{1, 1, 1, 1}, []float64{0, 0, 0, 0}); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
	if r := DuplicationRatio([]int32{1, 2}, []float64{0, 0}); r != 0 {
		t.Fatalf("ratio = %v, want 0", r)
	}
	if DuplicationRatio(nil, nil) != 0 {
		t.Fatal("empty ratio should be 0")
	}
	// Same node at different times is NOT a duplicate (§3.1's rule).
	if r := DuplicationRatio([]int32{1, 1}, []float64{0, 1}); r != 0 {
		t.Fatalf("time-distinct pairs deduplicated: %v", r)
	}
}

func TestNodeDuplicationRatio(t *testing.T) {
	// Layer-0 rule: timestamps ignored.
	if r := NodeDuplicationRatio([]int32{1, 1, 2}); r < 0.33 || r > 0.34 {
		t.Fatalf("node ratio = %v", r)
	}
	if NodeDuplicationRatio(nil) != 0 {
		t.Fatal("empty node ratio should be 0")
	}
}

// DedupInvert expands the unique-row tensor H (unique, d) back to the
// original batch shape using the inverse index, duplicating rows so the
// output is elementwise identical to what the unoptimized computation
// would have produced (§4.1).
func DedupInvert(h *tensor.Tensor, invIdx []int32) *tensor.Tensor {
	return DedupInvertWith(nil, h, invIdx)
}

// TestDedupFoldsOnlyIdenticalTimes: §4.1 dedup folds two targets only
// if their nodes are equal and their times have equal bits, whatever
// Key they share.
func TestDedupFoldsOnlyIdenticalTimes(t *testing.T) {
	nodes := []int32{5, 5, 5, 5, 5, 6}
	ts := []float64{10, 10.25, 10 + (1 << 32), 10 - (1 << 33), 10, 10}
	res := DedupFilter(nodes, ts)
	if res.Unique() != 5 {
		t.Fatalf("%d unique of %v, want 5", res.Unique(), ts)
	}
	for i, r := range res.InvIdx {
		if res.Nodes[r] != nodes[i] || res.Times[r] != ts[i] {
			t.Fatalf("target %d restored as ⟨%d, %v⟩", i, res.Nodes[r], res.Times[r])
		}
	}
	if ComputeKeysInto(make([]uint64, len(nodes)), nodes, ts) {
		t.Fatal("ComputeKeysInto reported out-of-domain times as inside")
	}
	if !ComputeKeysInto(make([]uint64, 2), []int32{5, 6}, []float64{0, (1 << 32) - 1}) {
		t.Fatal("ComputeKeysInto reported in-domain times as outside")
	}
}

package core_test

import (
	"fmt"

	"tgopt/internal/core"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
)

// ExampleDedupFilter demonstrates Algorithm 2: duplicate ⟨node, t⟩
// targets collapse to unique pairs, and the inverse index restores the
// original batch shape.
func ExampleDedupFilter() {
	nodes := []int32{7, 9, 7, 7}
	times := []float64{100, 200, 100, 300}
	res := core.DedupFilter(nodes, times)
	fmt.Println("unique:", res.Unique())
	fmt.Println("inverse:", res.InvIdx)

	// Pretend each unique pair produced a 2-wide embedding row.
	h := tensor.FromSlice([]float32{
		1, 1, // ⟨7,100⟩
		2, 2, // ⟨9,200⟩
		3, 3, // ⟨7,300⟩
	}, 3, 2)
	full := core.DedupInvertWith(nil, h, res.InvIdx)
	fmt.Println("restored rows:", full.Dim(0))
	fmt.Println("row 2 equals row 0:", full.At(2, 0) == full.At(0, 0))
	// Output:
	// unique: 3
	// inverse: [0 1 0 2]
	// restored rows: 4
	// row 2 equals row 0: true
}

// ExampleKey shows the collision-free packing of §4.1.
func ExampleKey() {
	fmt.Printf("%#x\n", core.Key(1, 2))
	fmt.Println(core.Key(1, 2) == core.Key(2, 1))
	// Output:
	// 0x100000002
	// false
}

// ExampleTimeTable shows the §4.3 precomputed window: integral
// in-window deltas are exact table hits, everything else falls back to
// the true computation — so outputs never change.
func ExampleTimeTable() {
	enc := nn.NewTimeEncoder(4)
	table := core.NewTimeTable(enc, 1000)
	out := tensor.New(5, 4)
	hits := table.EncodeIntoWith(nil, []float64{0, 42, 999, 1000, 2.5}, out)
	fmt.Println("hits:", hits)
	fmt.Println("exact:", out.AllClose(enc.Encode([]float64{0, 42, 999, 1000, 2.5}), 0))
	// Output:
	// hits: 3
	// exact: true
}

// ExampleCache shows the memoization cache of §4.2: lookups fill hit
// rows and report misses; the FIFO limit bounds memory.
func ExampleCache() {
	cache := core.NewCache(1000, 2, 4)
	keys := []uint64{core.Key(7, 100), core.Key(9, 200)}
	cache.Store(keys, tensor.FromSlice([]float32{1, 1, 2, 2}, 2, 2))

	dst := tensor.New(3, 2)
	hits := make([]bool, 3)
	n := cache.LookupInto([]uint64{keys[1], core.Key(5, 5), keys[0]}, dst, hits)
	fmt.Println("hits:", n, hits)
	fmt.Println("row 0:", dst.At(0, 0))
	// Output:
	// hits: 2 [true false true]
	// row 0: 2
}

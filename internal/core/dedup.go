package core

import (
	"math"

	"tgopt/internal/tensor"
)

// DedupResult is the output of a deduplication filter: the unique
// node–timestamp pairs and the inverse index mapping each original
// position to its row in the unique list.
type DedupResult struct {
	Nodes  []int32
	Times  []float64
	InvIdx []int32
}

// Unique returns the number of unique pairs.
func (d *DedupResult) Unique() int { return len(d.Nodes) }

// DedupFilter removes duplicate ⟨node, t⟩ pairs from the batch in a
// single pass, following Algorithm 2 of the paper: it operates jointly
// on the two parallel arrays (never materializing an intermediate 2-D
// tensor). Two pairs are duplicates when their nodes are equal and
// their times have equal bits, so no time is ever folded into another.
// The inverse index lets DedupInvertWith restore the original batch
// shape after computation.
func DedupFilter(nodes []int32, ts []float64) *DedupResult {
	res := DedupFilterWith(nil, nodes, ts)
	return &res
}

// DedupFilterWith is DedupFilter with all output and scratch storage
// drawn from ar (heap when ar is nil), returned by value so the hot
// path allocates nothing. Instead of a Go map it probes an
// open-addressed table over arena scratch — the map's per-call bucket
// allocations were the dominant dedup cost. Results are invalidated by
// ar.Reset.
func DedupFilterWith(ar *tensor.Arena, nodes []int32, ts []float64) DedupResult {
	if len(nodes) != len(ts) {
		panic("core: DedupFilter nodes/ts length mismatch")
	}
	n := len(nodes)
	res := DedupResult{
		Nodes:  ar.Int32s(n),
		Times:  ar.Float64s(n),
		InvIdx: ar.Int32s(n),
	}
	// Power-of-two table of unique-row indexes with load factor <= 1/2;
	// -1 is empty.
	size := 4
	for size < 2*n {
		size <<= 1
	}
	slots := ar.Int32s(size)
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(size - 1)
	u := 0
	for i := 0; i < n; i++ {
		v, tb := nodes[i], math.Float64bits(ts[i])
		p := pairHash(v, tb) & mask
		for {
			idx := slots[p]
			if idx < 0 {
				slots[p] = int32(u)
				res.Nodes[u] = v
				res.Times[u] = ts[i]
				res.InvIdx[i] = int32(u)
				u++
				break
			}
			if res.Nodes[idx] == v && math.Float64bits(res.Times[idx]) == tb {
				res.InvIdx[i] = idx
				break
			}
			p = (p + 1) & mask
		}
	}
	res.Nodes = res.Nodes[:u]
	res.Times = res.Times[:u]
	return res
}

// pairHash hashes ⟨node, Float64bits(t)⟩ for the dedup table and the
// top-layer memo's slots, through the splitmix64 finalizer: the pairs
// are structured, so probe positions need full avalanche.
func pairHash(node int32, tbits uint64) uint64 {
	h := tbits ^ uint64(uint32(node))*0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}

// DedupInvertWith expands the unique-row tensor H (unique, d) back to
// the original batch shape using the inverse index, duplicating rows so
// the output is elementwise identical to what the unoptimized
// computation would have produced (§4.1). The output is drawn from ar
// (heap when ar is nil).
func DedupInvertWith(ar *tensor.Arena, h *tensor.Tensor, invIdx []int32) *tensor.Tensor {
	d := h.Dim(1)
	out := ar.Tensor(len(invIdx), d)
	src := h.Data()
	dst := out.Data()
	for i, r := range invIdx {
		copy(dst[i*d:(i+1)*d], src[int(r)*d:(int(r)+1)*d])
	}
	return out
}

// DuplicationRatio reports the fraction of a batch that DedupFilter
// would remove — the metric of the paper's Table 1.
func DuplicationRatio(nodes []int32, ts []float64) float64 {
	if len(nodes) == 0 {
		return 0
	}
	res := DedupFilter(nodes, ts)
	return 1 - float64(res.Unique())/float64(len(nodes))
}

// NodeDuplicationRatio is DuplicationRatio ignoring timestamps — the
// layer-0 rule of §3.1, where only the node id matters because features
// are static.
func NodeDuplicationRatio(nodes []int32) float64 {
	if len(nodes) == 0 {
		return 0
	}
	seen := make(map[int32]struct{}, len(nodes))
	for _, v := range nodes {
		seen[v] = struct{}{}
	}
	return 1 - float64(len(seen))/float64(len(nodes))
}

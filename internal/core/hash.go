// Package core implements TGOpt, the paper's contribution: the
// redundancy-aware optimizations for TGAT inference. It provides
//
//   - the collision-free node–timestamp hash and the deduplication
//     filter of §4.1 (Algorithm 2),
//   - the sharded, memory-bounded embedding memoization cache of §4.2
//     with FIFO or TinyLFU admission,
//   - the precomputed time-encoding table of §4.3,
//   - the per-node target/support index that keeps the cache exact
//     under late inserts, appends and deletions on a live graph, and
//   - Engine, the end-to-end redundancy-aware embedding computation of
//     Algorithm 1 — a drop-in replacement for the baseline recursive
//     tgat.Model.Embed whose outputs are bitwise the baseline's.
package core

import (
	"math"
	"sync/atomic"

	"tgopt/internal/parallel"
)

// Key packs a 32-bit node id and a 32-bit timestamp into a single
// collision-free 64-bit cache key by bitwise shifting and OR-ing, as
// described in §4.1 of the paper. The key is collision-free on its
// domain, the integral times 0 ≤ t < 2³² (those of the supported
// datasets); outside it t is truncated to its low 32 bits, so the key
// may equal another time's. ComputeKeysInto reports such times, and the
// engine never looks one up or stores it.
func Key(node int32, t float64) uint64 {
	return uint64(uint32(node))<<32 | uint64(uint32(int64(t)))
}

// inKeyDomain reports whether t lies in Key's domain.
func inKeyDomain(t float64) bool {
	return t >= 0 && t < 1<<32 && t == math.Trunc(t)
}

// computeKeysParallelThreshold is the batch size above which ComputeKeys
// fans out; each key is independent (§4.2.1).
const computeKeysParallelThreshold = 1024

// ComputeKeys computes the cache key of every ⟨node, t⟩ pair. Pairs are
// independent, so large batches are processed in parallel (§4.2.1).
func ComputeKeys(nodes []int32, ts []float64) []uint64 {
	keys := make([]uint64, len(nodes))
	ComputeKeysInto(keys, nodes, ts)
	return keys
}

// ComputeKeysInto is ComputeKeys writing into a caller-supplied slice of
// length len(nodes) (the engine passes arena scratch). It reports
// whether every time lies in Key's domain.
func ComputeKeysInto(keys []uint64, nodes []int32, ts []float64) bool {
	if len(keys) != len(nodes) {
		panic("core: ComputeKeysInto keys length mismatch")
	}
	if len(nodes) >= computeKeysParallelThreshold && parallel.Degree() > 1 {
		var outside atomic.Bool
		parallel.ForChunked(len(nodes), 0, func(lo, hi int) {
			if !computeKeys(keys, nodes, ts, lo, hi) {
				outside.Store(true)
			}
		})
		return !outside.Load()
	}
	return computeKeys(keys, nodes, ts, 0, len(nodes))
}

// computeKeys fills keys[lo:hi], reporting whether each time lies in
// Key's domain.
func computeKeys(keys []uint64, nodes []int32, ts []float64, lo, hi int) bool {
	exact := true
	for i := lo; i < hi; i++ {
		keys[i] = Key(nodes[i], ts[i])
		exact = exact && inKeyDomain(ts[i])
	}
	return exact
}

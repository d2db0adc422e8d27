// Package core implements TGOpt, the paper's contribution: the
// redundancy-aware optimizations for TGAT inference. It provides
//
//   - the collision-free node–timestamp hash and the deduplication
//     filter of §4.1 (Algorithm 2),
//   - the sharded, memory-bounded embedding memoization cache of §4.2
//     with CLOCK or FIFO eviction,
//   - the precomputed time-encoding table of §4.3,
//   - one window index per cached layer, recording every window each
//     entry read, that keeps the cache exact under late inserts,
//     appends and deletions on a live graph, and
//   - Engine, the end-to-end redundancy-aware embedding computation of
//     Algorithm 1 — a drop-in replacement for the baseline recursive
//     tgat.Model.Embed whose outputs are bitwise the baseline's.
package core

import "math"

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

// ComputeKeysInto computes the cache key of every ⟨node, t⟩ pair into
// keys, a slice of length len(nodes) (the engine passes arena scratch),
// and reports whether every time lies in Key's domain. It runs
// serially: a key is two integer operations and a domain check, so a
// fan-out costs more than it splits. On 1 784 keys (a stream-reuse layer-1 batch) at
// GOMAXPROCS=2 on a 2-vCPU x86-64 host, the loop took 6.9 µs and 0
// allocs, a fan-out across both Ps 10.9 µs and 3 allocs.
func ComputeKeysInto(keys []uint64, nodes []int32, ts []float64) bool {
	if len(keys) != len(nodes) {
		panic("core: ComputeKeysInto keys length mismatch")
	}
	exact := true
	for i := range nodes {
		keys[i] = Key(nodes[i], ts[i])
		exact = exact && inKeyDomain(ts[i])
	}
	return exact
}

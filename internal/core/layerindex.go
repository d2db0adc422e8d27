package core

import "math"

// SupportIndex is the transitive half of deep-layer invalidation
// (DESIGN.md §11). For a cached layer l ≥ 2 it records, under every
// support node s, the layer-l cache keys whose computation aggregated
// s's layer-(l−1) embedding, together with the support's own query time
// t_s — the (node, time) pair identifying the exact lower-layer value
// consumed. One Record per sampled (non-padding) neighbor, so a
// layer-l entry costs at most k support records on top of its one
// TargetIndex record.
//
// Invalidation consults it two ways. CollectWindow answers rule (ii):
// a new edge (u, v, t) displaces the most-recent-k window of a support
// value ⟨s, t_s⟩ with s ∈ {u, v} exactly when fewer than k of s's
// interactions lie strictly between t and t_s — the same CountBetween
// refinement the layer's own TargetIndex uses, applied one hop down.
// CollectUpper answers rule (iii): a lower-layer entry displaced in
// the previous pass (identified by its cache key) drags every upper
// entry that recorded it as a support.
//
// Retention is TargetIndex's: a record lives until the watermark floor
// passes it, whether or not its upper entry is still cached — an upper
// entry may depend on an evicted lower value, and rule (iii) must still
// reach it — under the same per-node cap and shed fallback.
type SupportIndex struct{ nodeIndex }

// NewSupportIndex creates an empty index.
func NewSupportIndex() *SupportIndex {
	ix := &SupportIndex{}
	ix.init()
	return ix
}

// CollectWindow removes and returns the upper keys recorded under node
// s whose support time lies strictly after t and for which drop
// approves the displacement (nil drop approves everything), retiring
// the records below floor it passes. Records at or before t, and ones
// drop declines, stay indexed.
func (ix *SupportIndex) CollectWindow(s int32, t, floor float64, drop func(upper uint64, st float64) bool) []uint64 {
	return ix.collect(s, t, floor, drop)
}

// CollectUpper removes and returns the upper keys that recorded the
// displaced lower-layer entry under cache key lower as a support,
// retiring the records below floor it passes. The support's (node,
// time) identity is matched through the same Key encoding the caches
// use; a support time outside Key's domain may match another time's
// key, which only over-invalidates. The floor is an integer for this
// match: a displaced key's time truncates to at least ⌊watermark⌋, so
// every record sharing that key survives retirement.
func (ix *SupportIndex) CollectUpper(lower uint64, floor float64) []uint64 {
	s := int32(lower >> 32)
	if s == 0 {
		return nil
	}
	return ix.collect(s, math.Inf(-1), floor, func(_ uint64, st float64) bool { return Key(s, st) == lower })
}

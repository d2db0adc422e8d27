package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// indexShards fixes the index lock striping; recording is one short
// critical section per record.
const indexShards = 64

// nodeRecordCap bounds one node's record list. The watermark keeps lists
// short; only a lateness window wide enough that the floor never passes
// them lets one reach the cap. Past it, recording sheds and the next
// invalidation clears the layer and every layer above it whole, so the
// cap degrades to the conservative clear rather than to unsoundness.
const nodeRecordCap = 1 << 16

// WindowIndex is one cached layer's dependency index, the engine's one
// invalidation structure (DESIGN.md §11). A record ⟨key, t_x⟩ filed
// under node x means "the layer entry under key read x's most-recent-k
// window at t_x". Every entry records its own target ⟨v, t′⟩; an entry
// at layer l ≥ 2 also records each sampled non-padding neighbour
// ⟨s, t_s⟩ whose layer-(l−1) embedding it aggregated. So a layer-l
// entry costs one record, plus at most k on a deep layer.
//
// An edge (u, v, t) moves x's window at t_x exactly when x ∈ {u, v},
// t_x > t and fewer than k of x's interactions lie strictly between t
// and t_x: one collect per endpoint finds every entry that read such a
// window, target or support alike. CollectUpper carries the drop one
// layer up: a lower-layer entry displaced in the previous pass drags
// every entry that recorded its ⟨node, time⟩.
//
// A record lives only until the stream's watermark passes it, whether
// or not its entry is still cached (an upper entry may depend on an
// evicted lower value, and CollectUpper must still reach it): the
// engine hands every call a floor, ⌊watermark⌋, below which no edge the
// graph can still accept reaches a record (collection needs a record
// time above the edge's, and an accepted edge is never below the
// watermark). Record skips such records, and every scan and the
// every-1024 compaction retire them as they walk, so a list holds only
// what a write can still reach.
type WindowIndex struct {
	records atomic.Int64 // live records, for stats without a shard walk
	shed    atomic.Bool
	shards  [indexShards]indexShard
}

type indexShard struct {
	mu sync.Mutex
	m  map[int32][]keyAt
}

type keyAt struct {
	key uint64
	t   float64
}

// NewWindowIndex creates an empty index.
func NewWindowIndex() *WindowIndex {
	ix := &WindowIndex{}
	for i := range ix.shards {
		ix.shards[i].m = make(map[int32][]keyAt)
	}
	return ix
}

func (ix *WindowIndex) shardFor(x int32) *indexShard {
	h := uint64(uint32(x)) * 0x9E3779B97F4A7C15
	return &ix.shards[(h>>32)%indexShards]
}

// Record files key under node x at time t, unless x is padding (0) or
// t lies below floor. A list at nodeRecordCap sheds the record.
func (ix *WindowIndex) Record(x int32, key uint64, t, floor float64) {
	if x == 0 || t < floor {
		return
	}
	s := ix.shardFor(x)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.m[x]
	if len(list) >= nodeRecordCap {
		ix.shed.Store(true)
		return
	}
	list = append(list, keyAt{key, t})
	ix.records.Add(1)
	if len(list)%1024 == 0 {
		// A node no edge touches is never scanned: compact it as it grows.
		list, _ = ix.sweep(list, math.Inf(1), floor, nil)
	}
	s.m[x] = list
}

// collect removes and returns the keys recorded under x at times
// strictly after `after` that drop approves (nil approves every one),
// and retires the records below floor it passes. Records at or before
// `after`, and ones drop declines, stay indexed.
func (ix *WindowIndex) collect(x int32, after, floor float64, drop func(key uint64, at float64) bool) []uint64 {
	s := ix.shardFor(x)
	s.mu.Lock()
	defer s.mu.Unlock()
	list, out := ix.sweep(s.m[x], after, floor, drop)
	if list != nil {
		s.m[x] = list // an emptied list keeps its backing array
	}
	return out
}

// CollectUpper removes and returns the keys that recorded the displaced
// lower-layer entry under cache key lower, retiring the records below
// floor it passes. The ⟨node, time⟩ identity is matched through the
// same Key encoding the caches use: a time outside Key's domain may
// match another time's key, which only over-invalidates. An entry's own
// target record matches when the layer-(l−1) row at its ⟨v, t′⟩ was
// displaced; that row is the entry's input, read over the same windows,
// so the entry's other records drop it in the same pass anyway. The
// floor is an integer for this match: a displaced key's time truncates
// to at least ⌊watermark⌋, so every record sharing that key survives
// retirement.
func (ix *WindowIndex) CollectUpper(lower uint64, floor float64) []uint64 {
	x := int32(lower >> 32)
	if x == 0 {
		return nil
	}
	return ix.collect(x, math.Inf(-1), floor, func(_ uint64, t float64) bool { return Key(x, t) == lower })
}

// sweep is the walk collect and Record's compaction share: it compacts
// one list in place and returns what it collected.
func (ix *WindowIndex) sweep(list []keyAt, after, floor float64, drop func(uint64, float64) bool) ([]keyAt, []uint64) {
	var out []uint64
	w := 0
	for _, ka := range list {
		if ka.t < floor {
			continue
		}
		if ka.t > after && (drop == nil || drop(ka.key, ka.t)) {
			out = append(out, ka.key)
			continue
		}
		list[w] = ka
		w++
	}
	ix.records.Add(int64(w - len(list)))
	return list[:w], out
}

// Len returns the number of live records.
func (ix *WindowIndex) Len() int { return int(ix.records.Load()) }

// Shed reports whether a record was dropped at nodeRecordCap since the
// last Reset — the signal that the layer's tracking is incomplete and
// invalidation must fall back to the conservative clear.
func (ix *WindowIndex) Shed() bool { return ix.shed.Load() }

// Reset drops every record and clears the shed flag. Called alongside a
// clear of the layer the index serves: the records describe entries
// that no longer exist.
func (ix *WindowIndex) Reset() {
	for i := range ix.shards {
		s := &ix.shards[i]
		s.mu.Lock()
		n := 0
		for _, list := range s.m {
			n += len(list)
		}
		s.m = make(map[int32][]keyAt)
		ix.records.Add(int64(-n))
		s.mu.Unlock()
	}
	ix.shed.Store(false)
}

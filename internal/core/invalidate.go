package core

import (
	"math"
	"sync"
	"sync/atomic"
)

// targetIndexShards fixes the index lock striping; recording is one
// short critical section per record.
const targetIndexShards = 64

// nodeRecordCap bounds one node's record list. The watermark keeps lists
// short; only a lateness window wide enough that the floor never passes
// them lets one reach the cap. Past it, recording sheds and the next
// invalidation clears the layer and every layer above it whole, so the
// cap degrades to the conservative clear rather than to unsoundness.
const nodeRecordCap = 1 << 16

// nodeIndex is the striped node → [(key, t)] map both invalidation
// indexes are built on. A record lives only until the stream's
// watermark passes it: the engine hands every call a floor, ⌊watermark⌋,
// below which no edge the graph can still accept reaches a record
// (collection needs a record time above the edge's, and an accepted edge
// is never below the watermark). Record skips such records, and every
// scan and the every-1024 compaction retire them as they walk, so a
// list holds only what a write can still reach (DESIGN.md §11).
type nodeIndex struct {
	records atomic.Int64 // live records, for stats without a shard walk
	shed    atomic.Bool
	shards  [targetIndexShards]indexShard
}

type indexShard struct {
	mu sync.Mutex
	m  map[int32][]keyAt
}

type keyAt struct {
	key uint64
	t   float64
}

func (ix *nodeIndex) init() {
	for i := range ix.shards {
		ix.shards[i].m = make(map[int32][]keyAt)
	}
}

func (ix *nodeIndex) shardFor(v int32) *indexShard {
	h := uint64(uint32(v)) * 0x9E3779B97F4A7C15
	return &ix.shards[(h>>32)%targetIndexShards]
}

// Record registers key under node v at time t, unless v is padding (0)
// or t lies below floor. A list at nodeRecordCap sheds the record.
func (ix *nodeIndex) Record(v int32, key uint64, t, floor float64) {
	if v == 0 || t < floor {
		return
	}
	s := ix.shardFor(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.m[v]
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
	s.m[v] = list
}

// collect removes and returns the keys recorded under v at times
// strictly after `after` that drop approves (nil approves every one),
// and retires the records below floor it passes.
func (ix *nodeIndex) collect(v int32, after, floor float64, drop func(key uint64, at float64) bool) []uint64 {
	s := ix.shardFor(v)
	s.mu.Lock()
	defer s.mu.Unlock()
	list, out := ix.sweep(s.m[v], after, floor, drop)
	if list != nil {
		s.m[v] = list // an emptied list keeps its backing array
	}
	return out
}

// sweep is the walk collect and Record's compaction share: it compacts
// one list in place and returns what it collected.
func (ix *nodeIndex) sweep(list []keyAt, after, floor float64, drop func(uint64, float64) bool) ([]keyAt, []uint64) {
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
func (ix *nodeIndex) Len() int { return int(ix.records.Load()) }

// Shed reports whether a record was dropped at nodeRecordCap since the
// last Reset — the signal that the layer's tracking is incomplete and
// invalidation must fall back to the conservative clear.
func (ix *nodeIndex) Shed() bool { return ix.shed.Load() }

// Reset drops every record and clears the shed flag. Called alongside a
// clear of the layer the index serves: the records describe entries
// that no longer exist.
func (ix *nodeIndex) Reset() {
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

// TargetIndex is the per-node key index behind late-edge invalidation:
// for every node it lists the cache keys memoized *with that node as
// target*, together with their query timestamps. A late edge (u,v,t)
// can only change the sampled neighborhood of targets u and v at times
// after t, so the index turns "which memoized embeddings might now be
// stale?" into two list scans instead of a full cache sweep — targeted
// invalidation rather than Cache.Clear, at one record per entry.
// Records of keys that aged out of the cache stay until the watermark
// retires them; removing them is a no-op.
type TargetIndex struct{ nodeIndex }

// NewTargetIndex creates an empty index.
func NewTargetIndex() *TargetIndex {
	ix := &TargetIndex{}
	ix.init()
	return ix
}

// CollectNewer removes and returns the keys recorded for node v at
// times strictly after t for which drop returns true (nil drop keeps
// every candidate), retiring the records below floor it passes. Entries
// at or before t, and candidates drop declines, stay indexed.
func (ix *TargetIndex) CollectNewer(v int32, t, floor float64, drop func(key uint64, at float64) bool) []uint64 {
	return ix.collect(v, t, floor, drop)
}

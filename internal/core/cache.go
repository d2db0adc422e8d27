package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// splitWeights returns the relative budget weights for cached layers
// 1..top (index 0 unused). Layer l's share is proportional to
// k^(top−l): every layer-(l+1) miss fans out into k layer-l lookups, so
// lower layers see roughly k× the traffic of the layer above and
// deserve a proportionally larger share of the budget. Dedup and deep
// hits pull the real ratio below k, but the geometric shape is right
// and measurably beat a flat split on deep-model hit rate. Weights are
// floats so a large k at depth cannot overflow.
func splitWeights(k, top int) []float64 {
	w := make([]float64, top+1)
	for l := 1; l <= top; l++ {
		w[l] = 1
		if k < 2 {
			continue
		}
		for i := 0; i < top-l; i++ {
			w[l] *= float64(k)
		}
	}
	return w
}

// SplitCacheLimit divides a total item limit across cached layers
// 1..top (index 0 unused); every cached layer gets at least 1.
func SplitCacheLimit(total, k, top int) []int {
	w := splitWeights(k, top)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	per := make([]int, top+1)
	for l := 1; l <= top; l++ {
		per[l] = int(float64(total) * w[l] / sum)
		if per[l] < 1 {
			per[l] = 1
		}
	}
	return per
}

// Add accumulates o's counters into s — the shared merge used by the
// engine's cross-layer aggregate and the shard router's cross-shard
// aggregate.
func (s *CacheStats) Add(o CacheStats) {
	s.Lookups += o.Lookups
	s.Hits += o.Hits
	s.Misses += o.Misses
}

// CachePolicy selects the cache's eviction policy. Both admit every
// store.
type CachePolicy int

const (
	// CacheClock is second-chance FIFO: a lookup hit marks its entry
	// referenced, and a store into a full shard re-queues each
	// referenced entry at the age list's head as the newest, clearing
	// its mark, and evicts the first unreferenced one. An entry asked
	// for again since it was queued outlives a run of rows nobody asks
	// for twice — the recency-driven reuse of an edge stream, where an
	// event is re-sampled as a neighbour soon after it appears.
	// The zero value: new engines get CLOCK unless they opt out.
	CacheClock CachePolicy = iota
	// CacheFIFO is the original paper policy (§4.2.2): evict strictly
	// oldest-first — CacheClock with no entry ever marked.
	CacheFIFO
)

// cachePolicyNames are the policies' text forms: the -cache-policy
// flag's values and /v1/stats' rendering.
var cachePolicyNames = [...]string{CacheClock: "clock", CacheFIFO: "fifo"}

// MarshalText renders the policy's name.
func (p CachePolicy) MarshalText() ([]byte, error) {
	if p < 0 || int(p) >= len(cachePolicyNames) {
		return nil, fmt.Errorf("core: unknown cache policy %d", int(p))
	}
	return []byte(cachePolicyNames[p]), nil
}

// UnmarshalText parses a policy name MarshalText wrote.
func (p *CachePolicy) UnmarshalText(text []byte) error {
	for i, name := range cachePolicyNames {
		if string(text) == name {
			*p = CachePolicy(i)
			return nil
		}
	}
	return fmt.Errorf("core: unknown cache policy %q (want clock or fifo)", text)
}

// CacheConfig configures a memo cache.
type CacheConfig struct {
	// Limit is the maximum item count (required, >= 1).
	Limit int
	// Dim is the embedding width (required, >= 1).
	Dim int
	// Shards is the concurrency sharding degree (<= 0 picks 16;
	// rounded to a power of two and shrunk so each shard holds >= 1).
	Shards int
	// Policy picks the eviction policy (default CacheClock).
	Policy CachePolicy
}

// CacheStats is a point-in-time snapshot of the cache's counters. They
// are exact: they are taken under the same per-shard locks that guard
// the lookups and stores they count, so Lookups == Hits + Misses always
// holds.
type CacheStats struct {
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// AdmitRejected is always 0: every policy admits every store. It
	// stays only while the benchmark harness reads it.
	AdmitRejected int64 `json:"-"`
}

// Cache is the embedding memoization cache of §4.2: a sharded
// concurrent hash table from 64-bit ⟨node, t⟩ keys to embedding
// vectors, with a global item limit enforced per shard by CLOCK or FIFO
// eviction. Sharding keeps Store and LookupInto parallelizable,
// mirroring the concurrent hash table of the C++ implementation. Each
// shard holds its rows in a slab of fixed-width slots (cacheShard): a
// store copies its row into a slot, and once a shard has grown to its
// limit an evicting store allocates nothing.
type Cache struct {
	dim    int
	shards []cacheShard
	mask   uint64
	limit  int
	policy CachePolicy
}

// A shard's slab grows cacheChunkRows rows at a time, so a large limit
// costs nothing until it is used.
const (
	cacheChunkShift = 8
	cacheChunkRows  = 1 << cacheChunkShift
)

// cacheShard is a slab of slots. Slot p holds slots[p].key, its tag and
// row p, which lives at chunks[p/cacheChunkRows][(p%cacheChunkRows)·dim:].
// The live slots form a list linked by prev/next from the oldest (head)
// to the newest (tail), the eviction order; the slots Remove emptied
// form a free list linked by next. Bit p of ref is slot p's CLOCK
// reference mark. Slots, ref and chunks grow on demand and never past
// limit.
//
// index maps each live key to its slot: an open-addressed table of
// slot+1 (0: empty) probed linearly from the key's Fibonacci hash, at
// most half full, rebuilt only when the slot array grows. Deletion
// shifts later entries back (no tombstones), so the delete and insert
// of every evicting store allocate nothing, where a Go map's churn
// rehashes now and then.
type cacheShard struct {
	mu               sync.Mutex
	limit            int // this shard's slice of the global limit; Σ limits == Cache.limit
	n                int // live slots
	index            []int32
	shift            uint8 // 64 − log2(len(index))
	slots            []cacheSlot
	chunks           [][]float32
	ref              []uint64 // one bit a slot of cap(slots)
	head, tail, free int32    // slot indexes, -1 for none
	// Lookup counters, mutated only under mu so they stay exact with
	// respect to the lookups they count.
	hits, misses int64
}

// A slot's tag digests the window its layer-1 row was computed from
// (windowTag), so a snapshot load can tell whether the row would read
// the same inputs again; rows of deeper layers and of the public Store
// carry tag 0.
type cacheSlot struct {
	key, tag   uint64
	prev, next int32
}

// NewCache creates a FIFO cache for dim-wide embeddings holding at most
// limit items across the given number of shards (rounded up to a power
// of two; <=0 picks a default of 16). It preserves the original paper
// policy exactly — callers wanting CLOCK use NewCacheWith.
// The global limit is enforced exactly: it is distributed across the
// shards — remainder items to the lowest shard indices — so the
// per-shard FIFO limits sum to limit and Len() can never settle above
// Limit(). When limit < shards, the shard count shrinks so every shard
// can hold at least one entry.
func NewCache(limit, dim, shards int) *Cache {
	return NewCacheWith(CacheConfig{Limit: limit, Dim: dim, Shards: shards, Policy: CacheFIFO})
}

// NewCacheWith creates a cache from a full configuration.
func NewCacheWith(cfg CacheConfig) *Cache {
	if cfg.Limit < 1 {
		panic("core: cache limit must be >= 1")
	}
	if cfg.Dim < 1 {
		panic("core: cache dim must be >= 1")
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 16
	}
	ns := 1
	for ns < shards {
		ns *= 2
	}
	for ns > 1 && cfg.Limit < ns {
		ns /= 2
	}
	c := &Cache{
		dim:    cfg.Dim,
		shards: make([]cacheShard, ns),
		mask:   uint64(ns - 1),
		limit:  cfg.Limit,
		policy: cfg.Policy,
	}
	base, rem := cfg.Limit/ns, cfg.Limit%ns
	for i := range c.shards {
		s := &c.shards[i]
		s.head, s.tail, s.free = -1, -1, -1
		s.reindex(32)
		s.limit = base
		if i < rem {
			s.limit++
		}
	}
	return c
}

// shardFor mixes the key before selecting a shard so that the node-id
// high bits do not bias the distribution.
func (c *Cache) shardFor(key uint64) *cacheShard {
	h := key
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return &c.shards[h&c.mask]
}

// row returns slot p's row.
func (s *cacheShard) row(p int32, dim int) []float32 {
	i := int(p&(cacheChunkRows-1)) * dim
	return s.chunks[p>>cacheChunkShift][i : i+dim]
}

// Dim returns the embedding width.
func (c *Cache) Dim() int { return c.dim }

// Limit returns the configured maximum item count.
func (c *Cache) Limit() int { return c.limit }

// Policy returns the eviction policy.
func (c *Cache) Policy() CachePolicy { return c.policy }

// eachShard runs f on every shard in turn, under the shard's lock.
func (c *Cache) eachShard(f func(s *cacheShard)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}

// Len returns the current item count across all shards.
func (c *Cache) Len() int {
	n := 0
	c.eachShard(func(s *cacheShard) { n += s.n })
	return n
}

// UsedBytes returns the slabs' resident footprint: the row chunks
// allocated so far plus the slot arrays (24 bytes a slot), their
// reference bits and the key indexes.
func (c *Cache) UsedBytes() int64 {
	var n int64
	c.eachShard(func(s *cacheShard) {
		for _, ch := range s.chunks {
			n += 4 * int64(len(ch))
		}
		n += 24*int64(cap(s.slots)) + 8*int64(len(s.ref)) + 4*int64(len(s.index))
	})
	return n
}

// Stats snapshots the cache counters (see CacheStats for the exactness
// guarantees).
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	c.eachShard(func(s *cacheShard) {
		st.Add(CacheStats{Hits: s.hits, Misses: s.misses})
	})
	st.Lookups = st.Hits + st.Misses
	return st
}

// cacheParallelThreshold is the batch size above which LookupInto and
// Store fan out across shards-independent chunks.
const cacheParallelThreshold = 2048

// LookupInto searches for every key and copies each hit's embedding
// into the corresponding row of dst (shape (len(keys), dim)), leaving
// miss rows untouched. It writes the hit mask into hits, a slice of
// length len(keys) (every element is written, so callers may pass
// dirty arena scratch), and returns the hit count. The loop
// parallelizes for large batches; distinct keys never contend on the
// same row.
func (c *Cache) LookupInto(keys []uint64, dst *tensor.Tensor, hits []bool) int {
	return c.lookupExact(keys, nil, dst, hits)
}

// lookupExact is LookupInto over keys computed from the times ts: a key
// whose time lies outside Key's domain may be another time's key, so it
// is a miss that is never looked up. A nil ts has every time inside.
func (c *Cache) lookupExact(keys []uint64, ts []float64, dst *tensor.Tensor, hits []bool) int {
	if dst.Dim(0) != len(keys) || dst.Dim(1) != c.dim {
		panic("core: cache Lookup dst shape mismatch")
	}
	if len(hits) != len(keys) {
		panic("core: cache Lookup hits length mismatch")
	}
	data := dst.Data()
	if len(keys) >= cacheParallelThreshold && parallel.Degree() > 1 {
		var nhits atomic.Int64
		parallel.ForChunked(len(keys), 0, func(lo, hi int) {
			nhits.Add(int64(c.lookupRange(keys, ts, data, hits, lo, hi)))
		})
		return int(nhits.Load())
	}
	return c.lookupRange(keys, ts, data, hits, 0, len(keys))
}

// lookupRange performs lookups for keys [lo,hi), returning the local
// hit count. Hit/miss counters and CLOCK marks are set under the shard
// lock.
func (c *Cache) lookupRange(keys []uint64, ts []float64, data []float32, hits []bool, lo, hi int) int {
	local := 0
	for i := lo; i < hi; i++ {
		hits[i] = false
		if ts != nil && !inKeyDomain(ts[i]) {
			continue
		}
		key := keys[i]
		s := c.shardFor(key)
		s.mu.Lock()
		if p := s.find(key); p >= 0 {
			copy(data[i*c.dim:(i+1)*c.dim], s.row(p, c.dim))
			if c.policy == CacheClock {
				s.ref[p>>6] |= 1 << (p & 63)
			}
			s.hits++
			hits[i] = true
			local++
		} else {
			s.misses++
		}
		s.mu.Unlock()
	}
	return local
}

// Store inserts each (key, row of h) pair, evicting from full shards by
// the cache's policy. Rows are copied; h may be reused by the caller.
// Storing an existing key refreshes its value without re-queueing it.
// Rows stored here carry tag 0, which no engine snapshot load keeps.
func (c *Cache) Store(keys []uint64, h *tensor.Tensor) {
	c.storeExact(keys, nil, nil, h)
}

// storeExact is Store over keys computed from the times ts, skipping
// every key whose time lies outside Key's domain (see lookupExact), and
// tagging row i with tags[i] (nil: tag 0).
func (c *Cache) storeExact(keys []uint64, ts []float64, tags []uint64, h *tensor.Tensor) {
	if h.Dim(0) != len(keys) || h.Dim(1) != c.dim {
		panic("core: cache Store shape mismatch")
	}
	data := h.Data()
	if len(keys) >= cacheParallelThreshold && parallel.Degree() > 1 {
		parallel.ForChunked(len(keys), 0, func(lo, hi int) { c.storeRange(keys, ts, tags, data, lo, hi) })
		return
	}
	c.storeRange(keys, ts, tags, data, 0, len(keys))
}

func (c *Cache) storeRange(keys []uint64, ts []float64, tags []uint64, data []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		if ts != nil && !inKeyDomain(ts[i]) {
			continue
		}
		var tag uint64
		if tags != nil {
			tag = tags[i]
		}
		c.storeOne(keys[i], tag, data[i*c.dim:(i+1)*c.dim])
	}
}

// storeOne is the single insertion point; vec is copied. An existing
// key is refreshed in place and takes the new tag, keeping its place
// and mark. A new key takes the victim's slot when the shard is full
// (so the item count never settles above Limit()), else a free slot,
// else a new one, and queues as the newest, unmarked. The victim is
// found by walking the age list from its head: a marked slot loses its
// mark and re-queues as the newest, and the first unmarked slot goes.
// Each step clears a mark, so the walk ends; under FIFO nothing is
// marked and the victim is the head.
func (c *Cache) storeOne(key, tag uint64, vec []float32) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.find(key); p >= 0 {
		copy(s.row(p, c.dim), vec)
		s.slots[p].tag = tag
		return
	}
	var p int32
	switch {
	case s.n >= s.limit:
		for p = s.head; s.ref[p>>6]&(1<<(p&63)) != 0; p = s.head {
			s.ref[p>>6] &^= 1 << (p & 63)
			s.unlink(p)
			s.push(p)
		}
		s.unlink(p)
		s.unindex(s.slots[p].key)
		s.n--
	case s.free >= 0:
		p = s.free
		s.free = s.slots[p].next
	default:
		p = s.grow(c.dim)
	}
	copy(s.row(p, c.dim), vec)
	s.slots[p] = cacheSlot{key: key, tag: tag}
	s.ref[p>>6] &^= 1 << (p & 63)
	s.push(p)
	s.index[s.probe(key)] = p + 1
	s.n++
}

// push queues slot p as the newest.
func (s *cacheShard) push(p int32) {
	s.slots[p].prev, s.slots[p].next = s.tail, -1
	if s.tail < 0 {
		s.head = p
	} else {
		s.slots[s.tail].next = p
	}
	s.tail = p
}

// grow opens a new slot, and the chunk its row starts unless an earlier
// growth did (Clear keeps the chunks). The reference bits grow with the
// slot array. Nothing is sized past the limit.
func (s *cacheShard) grow(dim int) int32 {
	p := len(s.slots)
	if p == cap(s.slots) {
		grown := make([]cacheSlot, p, min(max(2*p, 16), s.limit))
		copy(grown, s.slots)
		s.slots = grown
		ref := make([]uint64, (cap(grown)+63)/64)
		copy(ref, s.ref)
		s.ref = ref
		if size := 2 * cap(grown); size > len(s.index) {
			s.reindex(1 << bits.Len(uint(size-1)))
		}
	}
	s.slots = s.slots[:p+1]
	if p>>cacheChunkShift == len(s.chunks) {
		s.chunks = append(s.chunks, make([]float32, min(cacheChunkRows, s.limit-p)*dim))
	}
	return int32(p)
}

// home is key's first index position.
func (s *cacheShard) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> s.shift)
}

// probe returns the index position holding key, or the empty one where
// its probe ends.
func (s *cacheShard) probe(key uint64) int {
	mask := len(s.index) - 1
	i := s.home(key)
	for q := s.index[i]; q != 0 && s.slots[q-1].key != key; q = s.index[i] {
		i = (i + 1) & mask
	}
	return i
}

// find returns key's slot, or -1.
func (s *cacheShard) find(key uint64) int32 { return s.index[s.probe(key)] - 1 }

// unindex drops key, which is indexed, moving back into the hole each
// later entry of the run whose probe passes it.
func (s *cacheShard) unindex(key uint64) {
	mask := len(s.index) - 1
	i := s.probe(key)
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		if h := s.home(s.slots[s.index[j]-1].key); (j-h)&mask >= (j-i)&mask {
			s.index[i], i = s.index[j], j
		}
	}
	s.index[i] = 0
}

// reindex rebuilds the index at size positions, a power of two, from
// the live slots.
func (s *cacheShard) reindex(size int) {
	s.index = make([]int32, size)
	s.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for p := s.head; p >= 0; p = s.slots[p].next {
		s.index[s.probe(s.slots[p].key)] = p + 1
	}
}

// unlink takes slot p out of the age list.
func (s *cacheShard) unlink(p int32) {
	sl := s.slots[p]
	if sl.prev < 0 {
		s.head = sl.next
	} else {
		s.slots[sl.prev].next = sl.next
	}
	if sl.next < 0 {
		s.tail = sl.prev
	} else {
		s.slots[sl.next].prev = sl.prev
	}
}

// Remove deletes the given keys if present and returns how many were
// actually removed. A removed key's slot leaves the age list for the
// free list, so the key queues as the newest if it is stored again.
func (c *Cache) Remove(keys []uint64) int {
	removed := 0
	for _, key := range keys {
		s := c.shardFor(key)
		s.mu.Lock()
		if p := s.find(key); p >= 0 {
			s.unindex(key)
			s.n--
			s.unlink(p)
			s.slots[p].next, s.free = s.free, p
			removed++
		}
		s.mu.Unlock()
	}
	return removed
}

// Clear drops every entry; counters are cumulative and keep counting.
// Shards keep their chunks, and a slot's mark is cleared when a key
// takes it (storeOne).
func (c *Cache) Clear() {
	c.eachShard(func(s *cacheShard) {
		clear(s.index)
		s.n = 0
		s.slots = s.slots[:0]
		s.head, s.tail, s.free = -1, -1, -1
	})
}

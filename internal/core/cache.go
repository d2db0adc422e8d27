package core

import (
	"sync"
	"sync/atomic"

	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

// cacheEntryOverhead approximates the per-item bookkeeping bytes beyond
// the embedding payload: the 8-byte key in the map and FIFO ring, the
// slice header, and amortized map bucket space. Used by UsedBytes so the
// reported footprint matches what the paper's Table 3/4 "used cache
// size" measures (their 100,007 × 100-float items report 46.5 MiB ≈
// payload × 1.16).
const cacheEntryOverhead = 64

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
	s.AdmitRejected += o.AdmitRejected
}

// CachePolicy selects the cache's admission/eviction policy.
type CachePolicy int

const (
	// CacheTinyLFU keeps a 4-bit count-min sketch of key frequencies
	// per shard and admits a new entry only when its estimated
	// frequency beats the would-be FIFO victim's. Under skewed reuse
	// (the JODIE-style repeat-consumption of production traffic) this
	// keeps heavy hitters resident where plain FIFO churns them out.
	// The zero value: new engines get TinyLFU unless they opt out.
	CacheTinyLFU CachePolicy = iota
	// CacheFIFO is the original paper policy (§4.2.2): evict strictly
	// oldest-first, admit everything.
	CacheFIFO
)

// CacheConfig configures a memo cache.
type CacheConfig struct {
	// Limit is the maximum item count (required, >= 1).
	Limit int
	// Dim is the embedding width (required, >= 1).
	Dim int
	// Shards is the concurrency sharding degree (<= 0 picks 16;
	// rounded to a power of two and shrunk so each shard holds >= 1).
	Shards int
	// Policy picks the eviction policy (default CacheTinyLFU).
	Policy CachePolicy
}

// CacheStats is a point-in-time snapshot of the cache's counters. They
// are exact: they are taken under the same per-shard locks that guard
// the lookups and stores they count, so Lookups == Hits + Misses always
// holds.
type CacheStats struct {
	Lookups       int64 `json:"lookups"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	AdmitRejected int64 `json:"admit_rejected"`
}

// Cache is the embedding memoization cache of §4.2: a sharded
// concurrent hash table from 64-bit ⟨node, t⟩ keys to embedding
// vectors, with a global item limit enforced per shard under either
// FIFO or TinyLFU admission. Sharding keeps Store and Lookup
// parallelizable, mirroring the concurrent hash table of the C++
// implementation.
type Cache struct {
	dim    int
	shards []cacheShard
	mask   uint64
	limit  int
	policy CachePolicy
}

type cacheShard struct {
	mu    sync.Mutex
	limit int // this shard's slice of the global limit; Σ limits == Cache.limit
	m     map[uint64][]float32
	fifo  []uint64 // insertion order; head compacts lazily
	head  int
	// dead counts FIFO occurrences orphaned by Remove: re-storing a
	// removed key appends a fresh occurrence, so the old one must be
	// skipped by eviction — not treated as the key's position — or a
	// remove→restore→evict sequence would evict the freshly stored
	// entry (it looks "oldest" through its stale occurrence).
	dead  map[uint64]int
	ndead int
	// sketch is the TinyLFU admission filter (nil under CacheFIFO).
	sketch *freqSketch
	// Lookup counters, mutated only under mu so they stay exact with
	// respect to the lookups they count.
	hits          int64
	misses        int64
	admitRejected int64
}

// NewCache creates a FIFO cache for dim-wide embeddings holding at most
// limit items across the given number of shards (rounded up to a power
// of two; <=0 picks a default of 16). It preserves the original paper
// policy exactly — callers wanting TinyLFU admission use NewCacheWith.
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
		s.m = make(map[uint64][]float32)
		s.limit = base
		if i < rem {
			s.limit++
		}
		if cfg.Policy == CacheTinyLFU {
			s.sketch = newFreqSketch(s.limit)
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

// Dim returns the embedding width.
func (c *Cache) Dim() int { return c.dim }

// Limit returns the configured maximum item count.
func (c *Cache) Limit() int { return c.limit }

// Policy returns the eviction policy.
func (c *Cache) Policy() CachePolicy { return c.policy }

// Len returns the current item count across all shards.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
		s.mu.Unlock()
	}
	return total
}

// UsedBytes estimates the resident footprint of the cached embeddings,
// payload plus bookkeeping overhead.
func (c *Cache) UsedBytes() int64 {
	return int64(c.Len()) * int64(4*c.dim+cacheEntryOverhead)
}

// Stats snapshots the cache counters (see CacheStats for the exactness
// guarantees).
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.AdmitRejected += s.admitRejected
		s.mu.Unlock()
	}
	st.Lookups = st.Hits + st.Misses
	return st
}

// cacheParallelThreshold is the batch size above which Lookup and Store
// fan out across shards-independent chunks.
const cacheParallelThreshold = 2048

// Lookup searches for every key and copies each hit's embedding into the
// corresponding row of dst (shape (len(keys), dim)), leaving miss rows
// untouched. It returns a hit mask and the hit count. The loop
// parallelizes for large batches; distinct keys never contend on the
// same row.
func (c *Cache) Lookup(keys []uint64, dst *tensor.Tensor) ([]bool, int) {
	hits := make([]bool, len(keys))
	n := c.LookupInto(keys, dst, hits)
	return hits, n
}

// LookupInto is Lookup writing the hit mask into a caller-supplied
// slice of length len(keys). Every mask element is written (callers may
// pass dirty arena scratch). Returns the hit count.
func (c *Cache) LookupInto(keys []uint64, dst *tensor.Tensor, hits []bool) int {
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
			nhits.Add(int64(c.lookupRange(keys, data, hits, lo, hi)))
		})
		return int(nhits.Load())
	}
	return c.lookupRange(keys, data, hits, 0, len(keys))
}

// lookupRange performs lookups for keys [lo,hi), returning the local
// hit count. Hit/miss counters are bumped under the shard lock.
func (c *Cache) lookupRange(keys []uint64, data []float32, hits []bool, lo, hi int) int {
	local := 0
	for i := lo; i < hi; i++ {
		key := keys[i]
		s := c.shardFor(key)
		s.mu.Lock()
		if s.sketch != nil {
			s.sketch.inc(key)
		}
		v, ok := s.m[key]
		if ok {
			copy(data[i*c.dim:(i+1)*c.dim], v)
			s.hits++
		} else {
			s.misses++
		}
		s.mu.Unlock()
		hits[i] = ok
		if ok {
			local++
		}
	}
	return local
}

// Store inserts each (key, row of h) pair, evicting the oldest entries
// of overfull shards — subject to TinyLFU admission when that policy is
// active. Rows are copied; h may be reused by the caller. Storing an
// existing key refreshes its value without re-queueing it.
func (c *Cache) Store(keys []uint64, h *tensor.Tensor) {
	if h.Dim(0) != len(keys) || h.Dim(1) != c.dim {
		panic("core: cache Store shape mismatch")
	}
	data := h.Data()
	if len(keys) >= cacheParallelThreshold && parallel.Degree() > 1 {
		parallel.ForChunked(len(keys), 0, func(lo, hi int) { c.storeRange(keys, data, lo, hi) })
		return
	}
	c.storeRange(keys, data, 0, len(keys))
}

func (c *Cache) storeRange(keys []uint64, data []float32, lo, hi int) {
	for i := lo; i < hi; i++ {
		c.storeOne(keys[i], data[i*c.dim:(i+1)*c.dim])
	}
}

// storeOne inserts a single entry under the shard's slice of the global
// limit, so the global item count never settles above Limit(). vec is
// copied.
func (c *Cache) storeOne(key uint64, vec []float32) {
	s := c.shardFor(key)
	s.mu.Lock()
	c.insertLocked(s, key, vec)
	s.mu.Unlock()
}

// insertLocked is the single insertion point (caller holds s.mu). It
// refreshes existing keys in place, and when the shard is full applies
// TinyLFU admission against the would-be victim before evicting it.
// Frequency is recorded by lookups only (lookupRange incs the sketch);
// counting here too would double-count every miss+store access, and a
// bulk load of never-looked-up keys would age resident heavy hitters
// out of the sketch without a single real access.
func (c *Cache) insertLocked(s *cacheShard, key uint64, vec []float32) {
	if old, ok := s.m[key]; ok {
		copy(old, vec)
		return
	}
	if len(s.m) >= s.limit {
		if s.sketch != nil {
			if victim, ok := s.oldestLocked(); ok && s.sketch.estimate(key) <= s.sketch.estimate(victim) {
				s.admitRejected++
				return
			}
		}
		s.evictOldestLocked()
	}
	v := make([]float32, c.dim)
	copy(v, vec)
	s.m[key] = v
	s.fifo = append(s.fifo, key)
}

// oldestLocked peeks at the shard's oldest live entry — the eviction
// victim TinyLFU admission compares against — advancing the head past
// dead and ghost occurrences without consuming the live one.
func (s *cacheShard) oldestLocked() (uint64, bool) {
	for s.head < len(s.fifo) {
		key := s.fifo[s.head]
		if n := s.dead[key]; n > 0 {
			s.markPoppedLocked(key, n)
			s.head++
			continue
		}
		if _, ok := s.m[key]; !ok {
			s.head++
			continue
		}
		return key, true
	}
	return 0, false
}

// evictOldestLocked removes the oldest live entry of the shard,
// skipping dead occurrences left behind by Remove (consuming their
// dead marks) and any key already gone from the map; the head region
// compacts once it grows past half the queue.
func (s *cacheShard) evictOldestLocked() {
	for s.head < len(s.fifo) {
		k := s.fifo[s.head]
		s.head++
		if n := s.dead[k]; n > 0 {
			s.markPoppedLocked(k, n)
			continue
		}
		if _, ok := s.m[k]; ok {
			delete(s.m, k)
			break
		}
	}
	if s.head > len(s.fifo)/2 && s.head > 1024 {
		s.fifo = append(s.fifo[:0], s.fifo[s.head:]...)
		s.head = 0
	}
}

// markPoppedLocked consumes one dead mark for a key whose stale FIFO
// occurrence was just popped or compacted away.
func (s *cacheShard) markPoppedLocked(key uint64, n int) {
	if n <= 1 {
		delete(s.dead, key)
	} else {
		s.dead[key] = n - 1
	}
	s.ndead--
}

// removeLocked deletes one key, marking its FIFO occurrence dead so a
// later re-store of the same key cannot be mistaken for the old
// occurrence, then compacts the queue if dead occurrences dominate —
// an invalidation storm must not grow the FIFO without bound.
func (s *cacheShard) removeLocked(key uint64) bool {
	if _, ok := s.m[key]; !ok {
		return false
	}
	delete(s.m, key)
	if s.dead == nil {
		s.dead = make(map[uint64]int)
	}
	s.dead[key]++
	s.ndead++
	if s.ndead > 64 && s.ndead > (len(s.fifo)-s.head)/2 {
		s.compactLocked()
	}
	return true
}

// compactLocked rewrites the FIFO without its dead occurrences (and
// the consumed head region), preserving order.
func (s *cacheShard) compactLocked() {
	live := s.fifo[s.head:]
	w := 0
	for _, key := range live {
		if n := s.dead[key]; n > 0 {
			s.markPoppedLocked(key, n)
			continue
		}
		live[w] = key
		w++
	}
	n := copy(s.fifo, live[:w])
	s.fifo = s.fifo[:n]
	s.head = 0
}

// Remove deletes the given keys if present and returns how many were
// actually removed. Removed keys' FIFO occurrences are marked dead (and
// compacted away under churn) so eviction order stays correct if the
// same keys are stored again.
func (c *Cache) Remove(keys []uint64) int {
	removed := 0
	for _, key := range keys {
		s := c.shardFor(key)
		s.mu.Lock()
		if s.removeLocked(key) {
			removed++
		}
		s.mu.Unlock()
	}
	return removed
}

// Clear drops every entry (and resets the TinyLFU frequency sketches;
// counters are cumulative and keep counting).
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[uint64][]float32)
		s.fifo = nil
		s.head = 0
		s.dead = nil
		s.ndead = 0
		if s.sketch != nil {
			s.sketch = newFreqSketch(s.limit)
		}
		s.mu.Unlock()
	}
}

// Keys returns every resident key (no particular order, each key once).
// Used to rebuild derived indexes after a snapshot load.
func (c *Cache) Keys() []uint64 {
	out := make([]uint64, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key := range s.m {
			out = append(out, key)
		}
		s.mu.Unlock()
	}
	return out
}

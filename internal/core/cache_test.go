package core

import (
	"slices"
	"sync"
	"testing"
	"tgopt/internal/parallel"

	"tgopt/internal/tensor"
)

func TestCacheStoreLookupRoundTrip(t *testing.T) {
	c := NewCache(100, 4, 4)
	keys := []uint64{1, 2, 3}
	h := tensor.FromSlice([]float32{
		1, 1, 1, 1,
		2, 2, 2, 2,
		3, 3, 3, 3,
	}, 3, 4)
	c.Store(keys, h)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	dst := tensor.New(4, 4)
	hits, n := c.Lookup([]uint64{2, 99, 3, 1}, dst)
	if n != 3 {
		t.Fatalf("hits = %d", n)
	}
	if !hits[0] || hits[1] || !hits[2] || !hits[3] {
		t.Fatalf("hit mask %v", hits)
	}
	if dst.At(0, 0) != 2 || dst.At(2, 0) != 3 || dst.At(3, 0) != 1 {
		t.Fatalf("looked-up rows wrong: %v", dst.Data())
	}
	// Miss row untouched (stays zero).
	if dst.At(1, 0) != 0 {
		t.Fatal("miss row was written")
	}
}

func TestCacheStoreCopiesRows(t *testing.T) {
	c := NewCache(10, 2, 1)
	h := tensor.FromSlice([]float32{7, 7}, 1, 2)
	c.Store([]uint64{1}, h)
	h.Set(0, 0, 0) // mutate the source after store
	dst := tensor.New(1, 2)
	c.Lookup([]uint64{1}, dst)
	if dst.At(0, 0) != 7 {
		t.Fatal("cache aliased caller storage")
	}
}

func TestCacheRefreshExistingKey(t *testing.T) {
	c := NewCache(10, 2, 1)
	c.Store([]uint64{5}, tensor.FromSlice([]float32{1, 1}, 1, 2))
	c.Store([]uint64{5}, tensor.FromSlice([]float32{9, 9}, 1, 2))
	if c.Len() != 1 {
		t.Fatalf("Len after refresh = %d", c.Len())
	}
	dst := tensor.New(1, 2)
	c.Lookup([]uint64{5}, dst)
	if dst.At(0, 0) != 9 {
		t.Fatal("refresh did not update value")
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	// Single shard so FIFO order is exact.
	c := NewCache(3, 1, 1)
	for k := uint64(1); k <= 3; k++ {
		c.Store([]uint64{k}, tensor.FromSlice([]float32{float32(k)}, 1, 1))
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Inserting a 4th evicts the oldest (key 1).
	c.Store([]uint64{4}, tensor.FromSlice([]float32{4}, 1, 1))
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d", c.Len())
	}
	if c.Contains(1) {
		t.Fatal("oldest entry not evicted")
	}
	for _, k := range []uint64{2, 3, 4} {
		if !c.Contains(k) {
			t.Fatalf("key %d missing after eviction", k)
		}
	}
}

func TestCacheLimitNeverExceeded(t *testing.T) {
	c := NewCache(64, 2, 8)
	r := tensor.NewRNG(1)
	for batch := 0; batch < 50; batch++ {
		n := 20
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = r.Uint64()
		}
		c.Store(keys, tensor.Rand(r, n, 2))
		if c.Len() > c.Limit() {
			t.Fatalf("cache grew to %d, cap %d", c.Len(), c.Limit())
		}
	}
	if c.UsedBytes() <= 0 {
		t.Fatal("UsedBytes not positive")
	}
}

func TestCacheGlobalLimitExactMultiShard(t *testing.T) {
	// The regression: per-shard limits used to round up (ceil(limit/ns)),
	// so a multi-shard cache could settle at up to ns-1 items above its
	// configured limit. Fill well past the limit and require Len() to
	// land at most at Limit() — and, with this many distinct keys, at
	// exactly Limit().
	c := NewCache(100, 2, 16)
	r := tensor.NewRNG(7)
	for batch := 0; batch < 20; batch++ {
		n := 50
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(batch*n + i + 1)
		}
		c.Store(keys, tensor.Rand(r, n, 2))
	}
	if c.Len() > c.Limit() {
		t.Fatalf("Len %d exceeds Limit %d", c.Len(), c.Limit())
	}
	if c.Len() != c.Limit() {
		t.Fatalf("overfilled cache settled at %d, want exactly %d", c.Len(), c.Limit())
	}
}

func TestCacheLimitSmallerThanShards(t *testing.T) {
	// A limit below the shard count shrinks the shard count so every
	// shard can hold at least one entry; the limit still binds exactly.
	c := NewCache(3, 1, 16)
	if len(c.shards) > 3 {
		t.Fatalf("shards = %d for limit 3", len(c.shards))
	}
	for k := uint64(1); k <= 20; k++ {
		c.Store([]uint64{k}, tensor.FromSlice([]float32{float32(k)}, 1, 1))
		if c.Len() > c.Limit() {
			t.Fatalf("Len %d exceeds Limit %d", c.Len(), c.Limit())
		}
	}
	if c.Len() == 0 {
		t.Fatal("tiny cache stored nothing")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache(10, 1, 2)
	c.Store([]uint64{1, 2}, tensor.Ones(2, 1))
	c.Clear()
	if c.Len() != 0 || c.Contains(1) {
		t.Fatal("Clear left entries")
	}
}

func TestCacheValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCache(0, 1, 1) },
		func() { NewCache(1, 0, 1) },
		func() {
			c := NewCache(1, 2, 1)
			c.Lookup([]uint64{1}, tensor.New(2, 2))
		},
		func() {
			c := NewCache(1, 2, 1)
			c.Store([]uint64{1, 2}, tensor.New(1, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid cache call did not panic")
				}
			}()
			f()
		}()
	}
}

func TestCacheShardRounding(t *testing.T) {
	c := NewCache(100, 1, 5) // rounds shards up to 8
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	if c.Limit() != 100 || c.Dim() != 1 {
		t.Fatal("accessors wrong")
	}
	d := NewCache(100, 1, 0)
	if len(d.shards) != 16 {
		t.Fatalf("default shards = %d, want 16", len(d.shards))
	}
}

func TestCacheConcurrentStoreLookup(t *testing.T) {
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	c := NewCache(10000, 4, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := tensor.NewRNG(uint64(w))
			for iter := 0; iter < 50; iter++ {
				n := 64
				keys := make([]uint64, n)
				h := tensor.New(n, 4)
				for i := range keys {
					k := uint64(r.Intn(2000))
					keys[i] = k
					for j := 0; j < 4; j++ {
						h.Set(float32(k), i, j)
					}
				}
				c.Store(keys, h)
				dst := tensor.New(n, 4)
				hits, _ := c.Lookup(keys, dst)
				for i := range keys {
					if hits[i] && dst.At(i, 0) != float32(keys[i]) {
						t.Errorf("value/key mismatch under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheLargeBatchParallelPath: a batch of thousands of keys, the
// size that once fanned out across goroutines, stores and reads back
// every row under a parallel degree of 4.
func TestCacheLargeBatchParallelPath(t *testing.T) {
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	c := NewCache(100000, 2, 16)
	n := 3048
	keys := make([]uint64, n)
	h := tensor.New(n, 2)
	for i := range keys {
		keys[i] = uint64(i)
		h.Set(float32(i), i, 0)
	}
	c.Store(keys, h)
	dst := tensor.New(n, 2)
	hits, nh := c.Lookup(keys, dst)
	if nh != n {
		t.Fatalf("parallel lookup hits = %d, want %d", nh, n)
	}
	for i := 0; i < n; i += 997 {
		if !hits[i] || dst.At(i, 0) != float32(i) {
			t.Fatalf("parallel row %d wrong", i)
		}
	}
}

// TestCacheLargeCallIsAFunctionOfItsInputs: the rows a call of
// thousands of keys evicts, and the CLOCK marks its lookups set, follow
// from the calls alone. Twenty fresh caches take the same calls — a
// store that overflows the cache, a lookup of every third key, a
// second overflowing store — and each must hold the same keys in the
// same age order, shard by shard; check.sh runs it at 1, 2 and 4 Ps.
func TestCacheLargeCallIsAFunctionOfItsInputs(t *testing.T) {
	const n = 8192 + 1000
	keys := make([]uint64, 2*n)
	for i := range keys {
		keys[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	h := tensor.New(n, 2)
	for _, policy := range []CachePolicy{CacheClock, CacheFIFO} {
		var want [][]uint64
		for run := 0; run < 20; run++ {
			c := NewCacheWith(CacheConfig{Limit: n / 3, Dim: 2, Shards: 16, Policy: policy})
			c.Store(keys[:n], h)
			every3 := make([]uint64, 0, n/3+1)
			for i := 0; i < n; i += 3 {
				every3 = append(every3, keys[i])
			}
			c.Lookup(every3, tensor.New(len(every3), 2))
			c.Store(keys[n:], h)
			var got [][]uint64
			c.eachShard(func(s *cacheShard) {
				var order []uint64
				for p := s.head; p >= 0; p = s.slots[p].next {
					order = append(order, s.slots[p].key)
				}
				got = append(got, order)
			})
			if run == 0 {
				want = got
				continue
			}
			for i := range want {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("policy %v, run %d: shard %d holds %d keys in another order than run 0's %d", policy, run, i, len(got[i]), len(want[i]))
				}
			}
		}
	}
}

func TestCacheFifoCompaction(t *testing.T) {
	// Many evictions through one shard reuse the oldest slot: the slab
	// never grows past the limit, and the survivors are the newest keys.
	c := NewCache(4, 1, 1)
	for k := uint64(0); k < 5000; k++ {
		c.Store([]uint64{k}, tensor.FromSlice([]float32{1}, 1, 1))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d after churn", c.Len())
	}
	c.checkBounded(t)
	for k := uint64(4996); k < 5000; k++ {
		if !c.Contains(k) {
			t.Fatalf("newest key %d evicted", k)
		}
	}
}

// checkBounded fails unless the shard's slots, slot capacity and chunk
// rows stay within its limit and its age and free lists partition the
// slots, the age list holding exactly the mapped keys.
func (c *Cache) checkBounded(t *testing.T) {
	t.Helper()
	for i := range c.shards {
		c.shards[i].checkBounded(t, c.dim)
	}
}

func (s *cacheShard) checkBounded(t *testing.T, dim int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	floats := 0
	for _, ch := range s.chunks {
		floats += len(ch)
	}
	if len(s.slots) > s.limit || cap(s.slots) > s.limit || floats > s.limit*dim {
		t.Fatalf("slab past its limit %d: %d slots (cap %d), %d rows", s.limit, len(s.slots), cap(s.slots), floats/dim)
	}
	live, prev := 0, int32(-1)
	for p := s.head; p >= 0; p = s.slots[p].next {
		if s.slots[p].prev != prev || s.find(s.slots[p].key) != p {
			t.Fatalf("age list broken at slot %d", p)
		}
		prev = p
		live++
	}
	indexed := 0
	for _, q := range s.index {
		if q != 0 {
			indexed++
		}
	}
	if prev != s.tail || live != s.n || live != indexed {
		t.Fatalf("age list holds %d slots ending at %d, count %d, index %d, tail %d", live, prev, s.n, indexed, s.tail)
	}
	free := 0
	for p := s.free; p >= 0; p = s.slots[p].next {
		free++
	}
	if live+free != len(s.slots) {
		t.Fatalf("%d live + %d free slots != %d slots", live, free, len(s.slots))
	}
}

func TestSplitCacheLimitPolicies(t *testing.T) {
	// Layer l weighs k^(top-l). k=4, top=2 → weights 4:1, so a
	// 1000-entry budget splits 800/200.
	per := SplitCacheLimit(1000, 4, 2)
	if len(per) != 3 || per[1] != 800 || per[2] != 200 {
		t.Fatalf("weighted split = %v, want [_ 800 200]", per)
	}
	// Degenerate fan-out (k < 2) degrades to even.
	per = SplitCacheLimit(1000, 1, 2)
	if per[1] != 500 || per[2] != 500 {
		t.Fatalf("k=1 split = %v, want even", per)
	}
	// Single cached layer takes everything; tiny budgets floor at 1.
	if per = SplitCacheLimit(1000, 4, 1); per[1] != 1000 {
		t.Fatalf("single-layer split = %v", per)
	}
	if per = SplitCacheLimit(1, 4, 3); per[1] < 1 || per[2] < 1 || per[3] < 1 {
		t.Fatalf("tiny budget split %v starved a layer", per)
	}
}

// Contains reports whether key is resident — a probe for tests that
// does not touch the lookup counters or the CLOCK marks.
func (c *Cache) Contains(key uint64) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	ok := s.find(key) >= 0
	s.mu.Unlock()
	return ok
}

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

// Keys returns every resident key (no particular order, each key once).
func (c *Cache) Keys() []uint64 {
	out := make([]uint64, 0, c.Len())
	c.eachShard(func(s *cacheShard) {
		for _, q := range s.index {
			if q != 0 {
				out = append(out, s.slots[q-1].key)
			}
		}
	})
	return out
}

package core

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"tgopt/internal/tensor"
)

// replayTrace drives a key trace through the cache the way the engine
// does: look up, store on miss. Returns the measured hit fraction.
func replayTrace(t *testing.T, c *Cache, trace []uint64) float64 {
	t.Helper()
	row := tensor.New(1, c.Dim())
	hits := make([]bool, 1)
	keys := make([]uint64, 1)
	served := 0
	for _, k := range trace {
		keys[0] = k
		if c.LookupInto(keys, row, hits) == 1 {
			served++
			continue
		}
		for j := 0; j < c.Dim(); j++ {
			row.Set(float32(k), 0, j)
		}
		c.Store(keys, row)
	}
	return float64(served) / float64(len(trace))
}

// zipfTrace samples n keys from [1, keyspace] under a Zipf(s)
// popularity law (rank-1 most popular), deterministically.
func zipfTrace(n, keyspace int, s float64, seed uint64) []uint64 {
	r := tensor.NewRNG(seed)
	cum := make([]float64, keyspace)
	total := 0.0
	for i := 0; i < keyspace; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	trace := make([]uint64, n)
	for i := range trace {
		x := r.Float64() * total
		trace[i] = uint64(1 + sort.SearchFloat64s(cum, x))
	}
	return trace
}

func TestTinyLFUKeepsHeavyHitterUnderScanChurn(t *testing.T) {
	// A key accessed repeatedly must survive a one-hit-wonder scan that
	// would flush the entire FIFO. This is the whole point of admission.
	cfg := CacheConfig{Limit: 8, Dim: 1, Shards: 1, Policy: CacheTinyLFU}
	c := NewCacheWith(cfg)
	one := tensor.Ones(1, 1)
	hot := uint64(7)
	// Build frequency for the hot key and make it resident.
	row := tensor.New(1, 1)
	hits := make([]bool, 1)
	c.Store([]uint64{hot}, one)
	for i := 0; i < 20; i++ {
		c.LookupInto([]uint64{hot}, row, hits)
	}
	// Scan: 1000 distinct cold keys, each stored once.
	for i := 0; i < 1000; i++ {
		c.Store([]uint64{uint64(1000 + i)}, one)
	}
	if !c.Contains(hot) {
		t.Fatal("TinyLFU evicted the heavy hitter during a cold scan")
	}
	st := c.Stats()
	if st.AdmitRejected == 0 {
		t.Fatal("cold scan triggered no admission rejections")
	}
	// FIFO control: same churn flushes the hot key.
	cf := NewCacheWith(CacheConfig{Limit: 8, Dim: 1, Shards: 1, Policy: CacheFIFO})
	cf.Store([]uint64{hot}, one)
	for i := 0; i < 20; i++ {
		cf.LookupInto([]uint64{hot}, row, hits)
	}
	for i := 0; i < 1000; i++ {
		cf.Store([]uint64{uint64(1000 + i)}, one)
	}
	if cf.Contains(hot) {
		t.Fatal("FIFO control unexpectedly kept the heavy hitter (test premise broken)")
	}
}

// TestTinyLFUSketchArmsAtHalfLimit pins when a shard holds a sketch:
// from the insert that brings it to half its limit until Clear, and
// never under FIFO. A ReadFrom inserts like a live store, so a load of
// half a shard or more arms it too.
func TestTinyLFUSketchArmsAtHalfLimit(t *testing.T) {
	one := tensor.Ones(1, 1)
	store := func(c *Cache, keys ...uint64) {
		for _, k := range keys {
			c.Store([]uint64{k}, one)
		}
	}
	c := NewCacheWith(CacheConfig{Limit: 8, Dim: 1, Shards: 1, Policy: CacheTinyLFU})
	s := &c.shards[0]
	store(c, 1, 2, 3)
	c.LookupInto([]uint64{1}, tensor.New(1, 1), make([]bool, 1))
	if s.sketch != nil {
		t.Fatal("a shard at 3 of 8 holds a sketch")
	}
	store(c, 3) // a refresh inserts nothing
	if s.sketch != nil {
		t.Fatal("refreshing a key armed the shard")
	}
	store(c, 4)
	sk := s.sketch
	if sk == nil {
		t.Fatal("the insert reaching 4 of 8 did not arm the shard")
	}
	c.Remove([]uint64{1, 2, 3})
	store(c, 5, 6, 7)
	if s.sketch != sk {
		t.Fatal("Remove below half, or the stores after it, replaced the sketch")
	}
	store(c, 8, 9, 10, 11, 12)
	if c.Len() != 8 || s.sketch != sk {
		t.Fatalf("a full shard (Len %d) lost its sketch", c.Len())
	}
	var snap bytes.Buffer
	if _, err := c.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if s.sketch != nil {
		t.Fatal("Clear kept the sketch")
	}
	store(c, 1, 2, 3)
	if s.sketch != nil {
		t.Fatal("a cleared shard re-armed below half")
	}
	store(c, 4)
	if s.sketch == nil {
		t.Fatal("a cleared shard did not re-arm at half")
	}

	// A load arms each shard it brings to half its limit, and only those:
	// here shard 0 holds 8 of 16 rows, shard 1 holds 7 and the rest none.
	multi := NewCacheWith(CacheConfig{Limit: 64, Dim: 1, Shards: 4, Policy: CacheTinyLFU})
	for k, want := uint64(1), map[*cacheShard]int{&multi.shards[0]: 8, &multi.shards[1]: 7}; len(want) > 0; k++ {
		if s := multi.shardFor(k); want[s] > 0 {
			store(multi, k)
			if want[s]--; want[s] == 0 {
				delete(want, s)
			}
		}
	}
	var blob bytes.Buffer
	if _, err := multi.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}
	loaded := NewCacheWith(CacheConfig{Limit: 64, Dim: 1, Shards: 4, Policy: CacheTinyLFU})
	if _, err := loaded.ReadFrom(&blob); err != nil {
		t.Fatal(err)
	}
	for i := range loaded.shards {
		ls := &loaded.shards[i]
		if (ls.sketch != nil) != (i == 0) {
			t.Fatalf("shard %d loaded %d of %d: armed %v", i, len(ls.m), ls.limit, ls.sketch != nil)
		}
	}
	full := NewCacheWith(CacheConfig{Limit: 8, Dim: 1, Shards: 1, Policy: CacheTinyLFU})
	if _, err := full.ReadFrom(&snap); err != nil {
		t.Fatal(err)
	}
	if full.shards[0].sketch == nil {
		t.Fatal("a load of a full shard did not arm it")
	}

	// FIFO shards never arm, full or evicting.
	fifo := NewCache(8, 1, 1)
	for k := uint64(1); k <= 20; k++ {
		store(fifo, k)
	}
	if fifo.shards[0].sketch != nil {
		t.Fatal("a FIFO shard built a sketch")
	}
}

func TestZipfTraceTinyLFUBeatsFIFO(t *testing.T) {
	// The satellite property test: replay a Zipf-skewed trace at equal
	// byte budget and require (a) TinyLFU hit-rate >= FIFO and (b) the
	// heavy hitters resident at the end.
	const keyspace = 4096
	trace := zipfTrace(60_000, keyspace, 1.1, 3)
	for _, limit := range []int{64, 256, 1024} {
		fifo := NewCacheWith(CacheConfig{Limit: limit, Dim: 4, Shards: 4, Policy: CacheFIFO})
		tlfu := NewCacheWith(CacheConfig{Limit: limit, Dim: 4, Shards: 4, Policy: CacheTinyLFU})
		hrFIFO := replayTrace(t, fifo, trace)
		hrTLFU := replayTrace(t, tlfu, trace)
		t.Logf("limit %4d: fifo %.4f tinylfu %.4f", limit, hrFIFO, hrTLFU)
		if hrTLFU < hrFIFO {
			t.Fatalf("limit %d: TinyLFU hit-rate %.4f below FIFO %.4f", limit, hrTLFU, hrFIFO)
		}
		if limit == 64 && hrTLFU <= hrFIFO {
			t.Fatalf("smallest budget: TinyLFU %.4f not strictly above FIFO %.4f", hrTLFU, hrFIFO)
		}
		// Heavy hitters (the top ranks dominate a Zipf trace) resident.
		resident := 0
		for k := uint64(1); k <= 8; k++ {
			if tlfu.Contains(k) {
				resident++
			}
		}
		if resident < 6 {
			t.Fatalf("limit %d: only %d/8 heavy hitters resident under TinyLFU", limit, resident)
		}
		// Counter invariant, both policies.
		for name, c := range map[string]*Cache{"fifo": fifo, "tinylfu": tlfu} {
			st := c.Stats()
			if st.Lookups != st.Hits+st.Misses {
				t.Fatalf("%s: lookups %d != hits %d + misses %d", name, st.Lookups, st.Hits, st.Misses)
			}
			if st.Lookups != int64(len(trace)) {
				t.Fatalf("%s: counted %d lookups, trace has %d", name, st.Lookups, len(trace))
			}
		}
	}
}

func TestCacheStatsInvariantUnderConcurrency(t *testing.T) {
	// Randomized mixed workload on four goroutines while a fifth reads
	// the counters: Lookups == Hits + Misses must hold at every read,
	// and no lookup may go uncounted.
	c := NewCacheWith(CacheConfig{Limit: 16, Dim: 2, Shards: 4, Policy: CacheTinyLFU})
	const workers, ops = 4, 5000
	var wg, reader sync.WaitGroup
	var want [workers]int64
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if st := c.Stats(); st.Lookups != st.Hits+st.Misses {
				t.Errorf("lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
				return
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := tensor.NewRNG(uint64(7 + g))
			row := tensor.New(1, 2)
			hits := make([]bool, 1)
			one := tensor.Ones(1, 2)
			for i := 0; i < ops; i++ {
				k := uint64(1 + r.Intn(200))
				switch r.Intn(4) {
				case 0, 1:
					c.LookupInto([]uint64{k}, row, hits)
					want[g]++
				case 2:
					c.Store([]uint64{k}, one)
				case 3:
					c.Remove([]uint64{k})
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	reader.Wait()
	var total int64
	for _, n := range want {
		total += n
	}
	if st := c.Stats(); st.Lookups != total || st.Lookups != st.Hits+st.Misses {
		t.Fatalf("stats %+v, want %d lookups = hits + misses", st, total)
	}
	if c.Len() > c.Limit() {
		t.Fatalf("len %d above limit %d", c.Len(), c.Limit())
	}
}

func TestNewCacheWithValidation(t *testing.T) {
	for _, bad := range []CacheConfig{
		{Limit: 0, Dim: 1},
		{Limit: 1, Dim: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCacheWith(%+v) did not panic", bad)
				}
			}()
			NewCacheWith(bad)
		}()
	}
}

func TestEngineCacheStatsAggregates(t *testing.T) {
	_, _, eng, _ := oooSetup(t, 0)
	st := eng.CacheStats()
	if st.Lookups == 0 || st.Lookups != st.Hits+st.Misses {
		t.Fatalf("engine cache stats inconsistent: %+v", st)
	}
}

// TestCachePolicyTextRoundTrip: every policy's name parses back to the
// policy, and an unknown name or value is refused.
func TestCachePolicyTextRoundTrip(t *testing.T) {
	for _, p := range []CachePolicy{CacheTinyLFU, CacheFIFO} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back CachePolicy = -1
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Fatalf("%q parsed to %d (%v), want %d", text, back, err, p)
		}
	}
	var p CachePolicy
	if err := p.UnmarshalText([]byte("lru")); err == nil {
		t.Fatal("unknown policy name \"lru\" parsed")
	}
	if _, err := CachePolicy(7).MarshalText(); err == nil {
		t.Fatal("unknown policy value 7 rendered")
	}
}

func ExampleCachePolicy() {
	c := NewCacheWith(CacheConfig{Limit: 4, Dim: 1, Shards: 1}) // zero Policy
	fmt.Println(c.Policy() == CacheTinyLFU)
	// Output: true
}

// CacheStats aggregates the per-layer cache counters (hit/miss and
// admission; see CacheStats). Zero when the cache is disabled.
func (e *Engine) CacheStats() CacheStats {
	var agg CacheStats
	for _, c := range e.caches {
		if c != nil {
			agg.Add(c.Stats())
		}
	}
	return agg
}

package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/tensor"
)

// replayTrace drives a key trace through the cache the way the engine
// does: look up, store on miss. Returns the measured hit fraction
// (spill hits included — they avoid the recompute too).
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

func newTestSpill(t *testing.T, dim int) *SpillStore {
	t.Helper()
	sp, err := NewSpillStore(checkpoint.OS{}, t.TempDir(), dim, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestTieredCacheSpillServesEvictedEntries(t *testing.T) {
	sp := newTestSpill(t, 2)
	c := NewCacheWith(CacheConfig{Limit: 4, Dim: 2, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()

	// Fill past the hot limit: the overflow must land in the cold tier.
	n := 32
	keys := make([]uint64, n)
	vals := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		keys[i] = uint64(i + 1)
		vals.Set(float32(i+1), i, 0)
		vals.Set(float32(-(i + 1)), i, 1)
	}
	c.Store(keys, vals)
	if c.Len() != 4 {
		t.Fatalf("hot tier holds %d, want 4", c.Len())
	}
	if sp.Len() != n-4 {
		t.Fatalf("spill holds %d, want %d", sp.Len(), n-4)
	}

	// Every key is still served, with the right bytes.
	dst := tensor.New(n, 2)
	hits := make([]bool, n)
	if got := c.LookupInto(keys, dst, hits); got != n {
		t.Fatalf("served %d of %d after spill", got, n)
	}
	for i := 0; i < n; i++ {
		if dst.At(i, 0) != float32(i+1) || dst.At(i, 1) != float32(-(i+1)) {
			t.Fatalf("key %d: got (%g,%g)", keys[i], dst.At(i, 0), dst.At(i, 1))
		}
	}

	st := c.Stats()
	if st.Lookups != st.Hits+st.Misses {
		t.Fatalf("lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
	}
	if st.SpillHits > st.Misses {
		t.Fatalf("spill hits %d exceed hot-tier misses %d", st.SpillHits, st.Misses)
	}
	// The scan is synchronous and FIFO: each of the n-4 spilled keys is
	// promoted as it is read, which demotes the oldest hot entry, so by
	// the time the scan reaches the four keys that started hot they are
	// spill hits too — and every promotion is applied, none dropped.
	if st.SpillHits != int64(n) || st.Promotes != int64(n) || st.PromoteDrops != 0 {
		t.Fatalf("spill hits %d promotes %d drops %d, want %d %d 0", st.SpillHits, st.Promotes, st.PromoteDrops, n, n)
	}
	if c.Len() != 4 {
		t.Fatalf("hot tier holds %d after the scan, want 4", c.Len())
	}

	// Contains and Keys reach the cold tier.
	if !c.Contains(keys[0]) {
		t.Fatal("Contains misses a spilled key")
	}
	if got := len(c.Keys()); got != n {
		t.Fatalf("Keys() = %d entries, want %d", got, n)
	}
}

func TestTieredCachePromoteOnHit(t *testing.T) {
	sp := newTestSpill(t, 1)
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	vals := tensor.Ones(4, 1)
	c.Store([]uint64{1, 2, 3, 4}, vals) // 1 and 2 spill

	row := tensor.New(1, 1)
	hits := make([]bool, 1)
	c.LookupInto([]uint64{1}, row, hits)
	if !hits[0] {
		t.Fatal("spilled key not served")
	}
	// The lookup that read the key promoted it: it is hot on return.
	s := c.shardFor(1)
	s.mu.Lock()
	_, resident := s.m[1]
	s.mu.Unlock()
	if st := c.Stats(); !resident || st.Promotes != 1 {
		t.Fatalf("key not promoted by its lookup (resident=%v promotes=%d drops=%d)",
			resident, st.Promotes, st.PromoteDrops)
	}
}

func TestTieredCacheRemoveReachesSpill(t *testing.T) {
	sp := newTestSpill(t, 1)
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	c.Store([]uint64{1, 2, 3, 4}, tensor.Ones(4, 1)) // 1,2 spill

	if !sp.Contains(1) {
		t.Fatal("precondition: key 1 not spilled")
	}
	// Invalidation must reach the cold tier, or a spilled stale memo
	// would be served (and promoted!) after the invalidation pass.
	if removed := c.Remove([]uint64{1, 3}); removed != 2 {
		t.Fatalf("Remove = %d, want 2 (one per tier)", removed)
	}
	if c.Contains(1) || c.Contains(3) {
		t.Fatal("removed keys still resident")
	}
	row := tensor.New(1, 1)
	hits := make([]bool, 1)
	if c.LookupInto([]uint64{1}, row, hits) != 0 {
		t.Fatal("removed spilled key still served")
	}
	// Clear wipes both tiers.
	c.Clear()
	if c.Len() != 0 || sp.Len() != 0 {
		t.Fatalf("Clear left len=%d spill=%d", c.Len(), sp.Len())
	}
}

func TestTieredCachePromoteGenerationFence(t *testing.T) {
	// White box: a promotion whose generation predates an invalidation
	// must be dropped, never applied — otherwise a removed entry would
	// resurrect into the hot tier.
	sp := newTestSpill(t, 1)
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	c.Store([]uint64{1, 2, 3, 4}, tensor.Ones(4, 1))

	stale := c.gen.Load()
	c.Remove([]uint64{1}) // bumps gen, removes from both tiers
	c.promote(1, []float32{1}, stale)
	if c.Contains(1) {
		t.Fatal("stale promotion resurrected a removed entry")
	}
	if c.Stats().PromoteDrops == 0 {
		t.Fatal("stale promotion not counted as dropped")
	}
	// A current-generation promotion still works.
	c.promote(9, []float32{9}, c.gen.Load())
	if !c.Contains(9) {
		t.Fatal("current-generation promotion was dropped")
	}
}

func TestTieredCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpillStore(checkpoint.OS{}, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	n := 16
	keys := make([]uint64, n)
	vals := tensor.New(n, 1)
	for i := range keys {
		keys[i] = uint64(i + 1)
		vals.Set(float32(i+1), i, 0)
	}
	c.Store(keys, vals)
	if err := c.Close(); err != nil { // seals the open segment
		t.Fatal(err)
	}

	sp2, err := NewSpillStore(checkpoint.OS{}, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp2})
	defer c2.Close()
	if sp2.Len() != n-2 {
		t.Fatalf("recovered %d spilled entries, want %d", sp2.Len(), n-2)
	}
	row := tensor.New(1, 1)
	hits := make([]bool, 1)
	for i := 0; i < n-2; i++ { // the first n-2 stores were the evicted ones
		k := keys[i]
		if c2.LookupInto([]uint64{k}, row, hits) != 1 {
			t.Fatalf("key %d lost across restart", k)
		}
		if row.At(0, 0) != float32(k) {
			t.Fatalf("key %d: got %g want %d", k, row.At(0, 0), k)
		}
	}
}

func TestSpillBudgetDropsOldestSegments(t *testing.T) {
	sp, err := NewSpillStore(checkpoint.OS{}, t.TempDir(), 1, 2048, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 512 // force frequent seals
	vec := []float32{1}
	for i := 0; i < 400; i++ {
		sp.Put(uint64(i+1), vec)
	}
	st := sp.Stats()
	if st.DroppedSegments == 0 {
		t.Fatal("budget never dropped a segment")
	}
	if st.Bytes > 2048+int64(sp.segTarget)+64 {
		t.Fatalf("spill bytes %d far above budget", st.Bytes)
	}
	// Oldest keys are the dropped ones; newest still present.
	if sp.Contains(1) {
		t.Fatal("oldest key survived budget enforcement")
	}
	if !sp.Contains(400) {
		t.Fatal("newest key dropped by budget enforcement")
	}
}

func TestSpillCompaction(t *testing.T) {
	sp, err := NewSpillStore(checkpoint.OS{}, t.TempDir(), 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 256
	vec := []float32{1}
	for i := 0; i < 100; i++ {
		sp.Put(uint64(i+1), vec)
	}
	if sp.Stats().Segments == 0 {
		t.Fatal("no sealed segments to compact")
	}
	// Remove 80% of keys: dead records dominate every segment, so
	// compaction must fold the survivors forward and delete files.
	for k := uint64(1); k <= 80; k++ {
		sp.Remove(k)
	}
	if sp.Stats().Compactions == 0 {
		t.Fatal("dead-dominated segments never compacted")
	}
	// Survivors still readable, removed keys stay gone.
	dst := make([]float32, 1)
	for k := uint64(81); k <= 100; k++ {
		if !sp.Get(k, dst) {
			t.Fatalf("key %d lost in compaction", k)
		}
	}
	for k := uint64(1); k <= 80; k++ {
		if sp.Get(k, dst) {
			t.Fatalf("removed key %d resurrected by compaction", k)
		}
	}
}

func TestCacheStatsInvariantAcrossTiers(t *testing.T) {
	// Randomized mixed workload: the counter invariant must hold at
	// every point regardless of spill/promote interleaving.
	sp := newTestSpill(t, 2)
	c := NewCacheWith(CacheConfig{Limit: 16, Dim: 2, Shards: 4, Policy: CacheTinyLFU, Spill: sp})
	defer c.Close()
	r := tensor.NewRNG(7)
	row := tensor.New(1, 2)
	hits := make([]bool, 1)
	var want int64
	for i := 0; i < 5000; i++ {
		k := uint64(1 + r.Intn(200))
		switch r.Intn(4) {
		case 0, 1:
			c.LookupInto([]uint64{k}, row, hits)
			want++
		case 2:
			c.Store([]uint64{k}, tensor.Ones(1, 2))
		case 3:
			c.Remove([]uint64{k})
		}
		if i%997 == 0 {
			st := c.Stats()
			if st.Lookups != st.Hits+st.Misses {
				t.Fatalf("i=%d: lookups %d != hits %d + misses %d", i, st.Lookups, st.Hits, st.Misses)
			}
			if st.SpillHits > st.Misses {
				t.Fatalf("i=%d: spill hits %d > misses %d", i, st.SpillHits, st.Misses)
			}
		}
	}
	if st := c.Stats(); st.Lookups != want {
		t.Fatalf("lookups %d, want %d", st.Lookups, want)
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
	// Spill dim mismatch panics too.
	sp := newTestSpill(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("spill dim mismatch did not panic")
		}
	}()
	NewCacheWith(CacheConfig{Limit: 1, Dim: 2, Spill: sp})
}

func TestEngineCacheStatsAggregates(t *testing.T) {
	_, _, eng, _ := oooSetup(t, 0)
	st := eng.CacheStats()
	if st.Lookups == 0 || st.Lookups != st.Hits+st.Misses {
		t.Fatalf("engine cache stats inconsistent: %+v", st)
	}
}

func ExampleCachePolicy() {
	c := NewCacheWith(CacheConfig{Limit: 4, Dim: 1, Shards: 1}) // zero Policy
	fmt.Println(c.Policy() == CacheTinyLFU)
	// Output: true
}

func TestTieredCachePromoteGenCapturedBeforeSpillRead(t *testing.T) {
	// Regression: the lookup path used to load the fence generation
	// *after* the spill read. An invalidation completing fully in the
	// window between SpillStore.Get returning and that load handed the
	// promotion a post-invalidation generation, so it passed the fence
	// in promoteOne and resurrected the just-removed entry. The
	// generation is now captured before the spill read and handed to
	// promote; this pins the threading: a promotion applied *after* an
	// invalidation, but carrying a pre-invalidation generation, must be
	// dropped at the re-check.
	sp := newTestSpill(t, 1)
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	c.Store([]uint64{1, 2, 3, 4}, tensor.Ones(4, 1)) // 1,2 spill

	// The serving goroutine's view of the race: gen loaded, spill read
	// returns a hit…
	gen := c.gen.Load()
	row := make([]float32, 1)
	if !sp.Get(1, row) {
		t.Fatal("precondition: key 1 not in spill tier")
	}
	// …then a Remove completes fully before the promotion is applied.
	c.Remove([]uint64{1})
	drops := c.Stats().PromoteDrops
	c.promote(1, row, gen)
	if c.Stats().PromoteDrops != drops+1 {
		t.Fatal("stale promotion not counted as dropped")
	}
	if c.Contains(1) {
		t.Fatal("promotion with a pre-invalidation generation resurrected the entry")
	}
}

// TestTieredCacheRemovedKeyStaysGoneUnderRace stresses the move fence
// from outside: lookups (each one a spill read and a promotion attempt),
// stores and removes of one spilled key race freely with stores of other
// keys (which evict it again, so its demotion is in flight too), then a
// last Remove runs while the lookups and the churn are still going.
// Whatever the interleaving, once that Remove has returned the key is in
// neither tier and no lookup serves it — a promotion or demotion that
// read its source before the Remove is dropped, not applied behind it.
func TestTieredCacheRemovedKeyStaysGoneUnderRace(t *testing.T) {
	const key = uint64(1)
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	sp := newTestSpill(t, 1)
	c := NewCacheWith(CacheConfig{Limit: 2, Dim: 1, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	one := tensor.Ones(1, 1)
	yield := func() {} // the spinning goroutines share one P politely, or race on several
	if runtime.GOMAXPROCS(0) == 1 {
		yield = runtime.Gosched
	}
	for round := 0; round < rounds; round++ {
		// The key starts each round in the cold tier only.
		c.Store([]uint64{key}, one)
		c.Store([]uint64{100, 101}, tensor.Ones(2, 1))
		if !sp.Contains(key) {
			t.Fatalf("round %d: key not spilled", round)
		}
		var removed atomic.Bool
		var after, served atomic.Int64 // lookups begun after the last Remove returned, and those that hit
		var writers, readers sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 2; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				row := tensor.New(1, 1)
				hits := make([]bool, 1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					yield()
					late := removed.Load()
					hit := c.LookupInto([]uint64{key}, row, hits) == 1
					if late {
						after.Add(1)
						if hit {
							served.Add(1)
						}
					}
				}
			}()
		}
		readers.Add(1)
		go func() { // churn: evicts whatever the lookups promote
			defer readers.Done()
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				yield()
				c.Store([]uint64{200 + i%4}, one)
			}
		}()
		writers.Add(2)
		go func() {
			defer writers.Done()
			for i := 0; i < 8; i++ {
				c.Store([]uint64{key}, one)
			}
		}()
		go func() {
			defer writers.Done()
			for i := 0; i < 8; i++ {
				c.Remove([]uint64{key})
			}
		}()
		writers.Wait()
		c.Remove([]uint64{key}) // the lookups are still running
		removed.Store(true)
		gone := !c.Contains(key)
		for after.Load() < 4 { // every lookup that straddled the Remove has finished
			runtime.Gosched()
		}
		close(stop)
		readers.Wait()
		if !gone || c.Contains(key) || served.Load() != 0 {
			t.Fatalf("round %d: removed key resident (at return %v, after %v) or served (%d lookups)",
				round, !gone, c.Contains(key), served.Load())
		}
	}
}

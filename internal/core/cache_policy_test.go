package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
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

// TestClockKeepsReferencedRowUnderScanChurn: a row looked up since it
// was queued survives a sweep of rows nobody asks for twice that evicts
// everything else, once — the sweep cleared its mark, so the next
// eviction takes it. Under FIFO the sweep's first store evicts it.
func TestClockKeepsReferencedRowUnderScanChurn(t *testing.T) {
	const limit = 8
	one := tensor.Ones(1, 1)
	for _, policy := range []CachePolicy{CacheClock, CacheFIFO} {
		c := NewCacheWith(CacheConfig{Limit: limit, Dim: 1, Shards: 1, Policy: policy})
		hot := uint64(1) // the oldest entry
		for k := hot; k <= limit; k++ {
			c.Store([]uint64{k}, one)
		}
		if c.LookupInto([]uint64{hot}, tensor.New(1, 1), make([]bool, 1)) != 1 {
			t.Fatal("the hot row is not resident")
		}
		for i := uint64(0); i < limit-1; i++ {
			c.Store([]uint64{100 + i}, one)
		}
		if policy == CacheFIFO {
			if c.Contains(hot) {
				t.Fatal("FIFO kept the oldest row through the sweep")
			}
			continue
		}
		for k := hot + 1; k <= limit; k++ {
			if c.Contains(k) {
				t.Fatalf("the sweep left row %d", k)
			}
		}
		if !c.Contains(hot) || c.Len() != limit {
			t.Fatalf("CLOCK evicted the row looked up since it was queued (Len %d)", c.Len())
		}
		c.Store([]uint64{200}, one)
		if c.Contains(hot) || !c.Contains(100) {
			t.Fatal("the mark bought more than one second chance")
		}
	}
}

func TestZipfTraceClockBeatsFIFO(t *testing.T) {
	// Replay a Zipf-skewed trace at equal limits and require CLOCK's
	// hit rate >= FIFO's at every limit and above it at one at least.
	const keyspace = 4096
	trace := zipfTrace(60_000, keyspace, 1.1, 3)
	above := false
	for _, limit := range []int{64, 256, 1024} {
		fifo := NewCacheWith(CacheConfig{Limit: limit, Dim: 4, Shards: 4, Policy: CacheFIFO})
		clock := NewCacheWith(CacheConfig{Limit: limit, Dim: 4, Shards: 4, Policy: CacheClock})
		hrFIFO := replayTrace(t, fifo, trace)
		hrClock := replayTrace(t, clock, trace)
		t.Logf("limit %4d: fifo %.4f clock %.4f", limit, hrFIFO, hrClock)
		if hrClock < hrFIFO {
			t.Fatalf("limit %d: CLOCK hit rate %.4f below FIFO %.4f", limit, hrClock, hrFIFO)
		}
		above = above || hrClock > hrFIFO
		// Counter invariant, both policies.
		for name, c := range map[string]*Cache{"fifo": fifo, "clock": clock} {
			st := c.Stats()
			if st.Lookups != st.Hits+st.Misses {
				t.Fatalf("%s: lookups %d != hits %d + misses %d", name, st.Lookups, st.Hits, st.Misses)
			}
			if st.Lookups != int64(len(trace)) {
				t.Fatalf("%s: counted %d lookups, trace has %d", name, st.Lookups, len(trace))
			}
		}
	}
	if !above {
		t.Fatal("CLOCK is nowhere above FIFO")
	}
}

// TestEngineClockHitsAtLeastFIFOOnColdStream replays a snap-reddit-shaped
// stream whose layer-1 cache evicts through Engine.EmbedWith in
// 200-edge batches: the default policy hits layer 1 at least as often
// as the paper's FIFO, and admits every row it computes.
func TestEngineClockHitsAtLeastFIFOOnColdStream(t *testing.T) {
	spec, err := dataset.SpecByName("snap-reddit")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(spec.Scale(0.01), dataset.Options{FeatureDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tgat.Config{Layers: 2, Heads: 1, NodeDim: 8, EdgeDim: 8, TimeDim: 8, NumNeighbors: 10, Seed: 1}
	m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
	edges := ds.Graph.Edges()
	layer1 := func(policy CachePolicy) CacheStats {
		opt := OptAll()
		opt.CacheLimit, opt.CachePolicy = 4000, policy
		eng := NewEngine(m, s, opt)
		ar := tensor.NewArena()
		const batch = 200
		nodes, ts := make([]int32, 2*batch), make([]float64, 2*batch)
		for lo := 0; lo+batch <= len(edges); lo += batch {
			for i, ed := range edges[lo : lo+batch] {
				nodes[i], nodes[batch+i] = ed.Src, ed.Dst
				ts[i], ts[batch+i] = ed.Time, ed.Time
			}
			ar.Reset()
			eng.EmbedWith(ar, nodes, ts)
		}
		ls := eng.LayerCacheStats()
		if len(ls) != 1 || ls[0].Layer != 1 || ls[0].Items != 4000 {
			t.Fatalf("policy %d: layer caches %+v, want layer 1 full at 4000", policy, ls)
		}
		return ls[0].CacheStats
	}
	clock, fifo := layer1(CacheClock), layer1(CacheFIFO)
	t.Logf("layer-1 hits: clock %d of %d, fifo %d of %d", clock.Hits, clock.Lookups, fifo.Hits, fifo.Lookups)
	if clock.Hits < fifo.Hits {
		t.Fatalf("the default policy hit layer 1 %d times, FIFO %d", clock.Hits, fifo.Hits)
	}
	if clock.AdmitRejected != 0 {
		t.Fatalf("the default policy refused %d rows", clock.AdmitRejected)
	}
}

func TestCacheStatsInvariantUnderConcurrency(t *testing.T) {
	// Randomized mixed workload on four goroutines while a fifth reads
	// the counters: Lookups == Hits + Misses must hold at every read,
	// and no lookup may go uncounted.
	c := NewCacheWith(CacheConfig{Limit: 16, Dim: 2, Shards: 4, Policy: CacheClock})
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
	_, _, eng, _ := transSetup(t, 200, OptAll())
	st := eng.CacheStats()
	if st.Lookups == 0 || st.Lookups != st.Hits+st.Misses {
		t.Fatalf("engine cache stats inconsistent: %+v", st)
	}
}

// TestCachePolicyTextRoundTrip: every policy's name parses back to the
// policy, and an unknown name or value is refused.
func TestCachePolicyTextRoundTrip(t *testing.T) {
	for _, p := range []CachePolicy{CacheClock, CacheFIFO} {
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
	fmt.Println(c.Policy() == CacheClock)
	// Output: true
}

// CacheStats aggregates the per-layer cache counters (hit/miss and
// eviction; see CacheStats). Zero when the cache is disabled.
func (e *Engine) CacheStats() CacheStats {
	var agg CacheStats
	for _, c := range e.caches {
		if c != nil {
			agg.Add(c.Stats())
		}
	}
	return agg
}

package core

import (
	"math"
	"slices"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

func TestCacheRemoveRestoreEviction(t *testing.T) {
	// Regression: Remove left the key's old FIFO occurrence behind, so
	// re-storing the key and then evicting dropped the *fresh* entry —
	// the stale occurrence made it look oldest.
	c := NewCache(2, 1, 1)
	c.Store([]uint64{1, 2}, tensor.Ones(2, 1))
	c.Remove([]uint64{1})
	c.Store([]uint64{1}, tensor.Ones(1, 1)) // restore: must queue as newest
	c.Store([]uint64{3}, tensor.Ones(1, 1)) // overflow: must evict 2
	if !c.Contains(1) {
		t.Fatal("restored entry evicted through its stale FIFO occurrence")
	}
	if c.Contains(2) || !c.Contains(3) {
		t.Fatal("eviction picked the wrong victim after remove→restore")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestCacheRemoveChurnCompactsFIFO(t *testing.T) {
	// An invalidation storm (store+remove cycles) must not grow the slab
	// without bound: a removed key's slot is reused by the next store.
	c := NewCache(4, 1, 1)
	one := tensor.Ones(1, 1)
	for i := 0; i < 50_000; i++ {
		k := uint64(i + 1)
		c.Store([]uint64{k}, one)
		c.Remove([]uint64{k})
	}
	c.checkBounded(t)
	// The cache still behaves after the churn.
	c.Store([]uint64{100_001, 100_002}, tensor.Ones(2, 1))
	if !c.Contains(100_001) || !c.Contains(100_002) {
		t.Fatal("cache broken after remove churn")
	}
	c.checkBounded(t)
}

func TestWindowIndexRecordCollect(t *testing.T) {
	ix := NewWindowIndex()
	ix.Record(5, 100, 10, 0)
	ix.Record(5, 101, 20, 0)
	ix.Record(5, 102, 30, 0)
	ix.Record(7, 103, 5, 0)
	ix.Record(0, 999, 1, 0) // padding node: ignored
	if ix.Len() != 4 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.collect(5, 15, 0, nil)
	if len(got) != 2 {
		t.Fatalf("collect(5, 15) = %v, want keys 101,102", got)
	}
	seen := map[uint64]bool{got[0]: true, got[1]: true}
	if !seen[101] || !seen[102] {
		t.Fatalf("wrong keys collected: %v", got)
	}
	// Collected entries left the index; older ones stayed.
	if rest := ix.collect(5, 0, 0, nil); len(rest) != 1 || rest[0] != 100 {
		t.Fatalf("second collect = %v, want [100]", rest)
	}
	// Other nodes are untouched.
	if keys := ix.collect(7, 0, 0, nil); len(keys) != 1 || keys[0] != 103 {
		t.Fatalf("node 7 = %v", keys)
	}
	// A declining drop predicate keeps candidates indexed.
	ix.Record(9, 200, 50, 0)
	if keys := ix.collect(9, 0, 0, func(uint64, float64) bool { return false }); len(keys) != 0 {
		t.Fatalf("declined candidates collected: %v", keys)
	}
	if keys := ix.collect(9, 0, 0, nil); len(keys) != 1 || keys[0] != 200 {
		t.Fatal("declined candidate was dropped from the index")
	}
}

func TestWindowIndexPrunesEvictedKeys(t *testing.T) {
	// A hot node no edge touches is compacted as it grows instead of
	// accumulating records no write can reach: the 1024th record carries
	// a floor of 1000, which retires every record below it.
	ix := NewWindowIndex()
	for i := 0; i < 1023; i++ {
		ix.Record(1, uint64(i), float64(i), 0)
	}
	ix.Record(1, 1023, 1023, 1000)
	if n := ix.Len(); n != 24 {
		t.Fatalf("Len = %d after the every-1024 compaction at floor 1000, want 24", n)
	}
	// A scan at floor 0 retires nothing, so every key it sees survived
	// the compaction.
	if got := ix.collect(1, math.Inf(-1), 0, nil); len(got) != 24 || slices.Min(got) != 1000 {
		t.Fatalf("collect after compaction = %v, want keys 1000..1023", got)
	}
}

// oooSetup builds a 2-layer model over a live graph with the given
// lateness window and warms the engine's cache (and its window index)
// over the whole stream. Timestamps are distinct integers, inside Key's
// domain, so the layer caches hold the rows the invalidations act on.
func oooSetup(t *testing.T, lateness float64) (*tgat.Model, *graph.Dynamic, *Engine, []graph.Edge) {
	t.Helper()
	r := tensor.NewRNG(5)
	const nodes, total = 25, 600
	stream := make([]graph.Edge, 0, total)
	clock := 0.0
	for len(stream) < total {
		clock += 1 + r.Float64()*10
		src := int32(1 + r.Intn(nodes))
		dst := int32(1 + r.Intn(nodes))
		if src == dst {
			continue
		}
		stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: math.Floor(clock), Idx: int32(len(stream) + 1)})
	}
	nodeFeat := tensor.Randn(r, nodes+1, 16)
	edgeFeat := tensor.Randn(r, total+2, 16)
	for j := 0; j < 16; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 11}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(lateness)
	for _, e := range stream {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())
	for start := 0; start < total; start += 100 {
		batch := stream[start : start+100]
		ns := make([]int32, 2*len(batch))
		ts := make([]float64, 2*len(batch))
		for i, e := range batch {
			ns[i], ns[len(batch)+i] = e.Src, e.Dst
			ts[i], ts[len(batch)+i] = e.Time, e.Time
		}
		eng.Embed(ns, ts)
	}
	if eng.CacheLen() == 0 || eng.IndexFor(1).Len() == 0 {
		t.Fatal("warming pass cached nothing / indexed nothing")
	}
	return m, dyn, eng, stream
}

func TestInvalidateLateEdgeFutureTimeRemovesNothing(t *testing.T) {
	// No cached query is newer than the stream head, so an "insert" at
	// the head invalidates nothing and preserves every entry.
	_, dyn, eng, _ := oooSetup(t, 200)
	before := eng.CacheLen()
	if removed := eng.InvalidateEdge(1, 2, dyn.MaxTime()+1); removed != 0 {
		t.Fatalf("future-time invalidation removed %d entries", removed)
	}
	if eng.CacheLen() != before {
		t.Fatal("cache shrank on a no-op invalidation")
	}
}

func TestInvalidateLateEdgeMostRecentWindowRefinement(t *testing.T) {
	// Node 1 interacts 10 times before the only cached query time. A
	// late edge older than all of them cannot enter the most-recent-k
	// window, so the CountBetween refinement keeps the entry; a late
	// edge inside the window drops it.
	r := tensor.NewRNG(9)
	const nodes = 9
	nodeFeat := tensor.Randn(r, nodes+1, 16)
	edgeFeat := tensor.Randn(r, 64, 16)
	for j := 0; j < 16; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 3}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(1_000)
	for i := 0; i < 10; i++ {
		// Alternate partners so node 1's degree is 10.
		if _, err := dyn.Append(graph.Edge{Src: 1, Dst: int32(2 + i%3), Time: float64(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())
	eng.Embed([]int32{1}, []float64{150})
	if eng.CacheLen() == 0 {
		t.Fatal("warming query cached nothing")
	}

	// Ten interactions separate t=5 from the query at 150: the late edge
	// cannot displace the most-recent-5 window, entry kept. Node 9 has
	// no cached entries at all.
	if removed := eng.InvalidateEdge(1, 9, 5); removed != 0 {
		t.Fatalf("out-of-window late edge removed %d entries", removed)
	}
	if eng.CacheLen() == 0 {
		t.Fatal("refinement dropped the cache anyway")
	}
	// Only 3 interactions in (75, 150): the window shifts, entry dropped.
	if removed := eng.InvalidateEdge(1, 9, 75); removed == 0 {
		t.Fatal("in-window late edge removed nothing")
	}
}

func TestInvalidateAppendAheadOfAllEmbedsIsFree(t *testing.T) {
	// The common case — appends strictly ahead of every embedded query
	// time — must take the O(1) fast path: nothing removed, no index
	// scan. oooSetup only embeds at edge times, so an append at the head
	// is ahead of them all.
	_, dyn, eng, _ := oooSetup(t, 0)
	before := eng.CacheLen()
	if removed := eng.InvalidateEdge(3, 4, dyn.MaxTime()+1); removed != 0 {
		t.Fatalf("ahead-of-embeds append invalidated %d entries", removed)
	}
	if eng.CacheLen() != before {
		t.Fatal("cache shrank on an ahead-of-embeds append")
	}
}

func TestInvalidateLateEdgeWithoutIndexClearsAll(t *testing.T) {
	// A static-sampler engine builds no index, so the only sound response
	// is a full clear — and the count must reflect it.
	ds, m, s := engineTestSetup(t, 300)
	eng := NewEngine(m, s, OptAll())
	if eng.IndexFor(1) != nil {
		t.Fatal("a static-sampler engine built an index")
	}
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	before := eng.CacheLen()
	if before == 0 {
		t.Fatal("setup cached nothing")
	}
	if removed := eng.InvalidateEdge(1, 2, 0); removed != before {
		t.Fatalf("fallback clear reported %d, want %d", removed, before)
	}
	if eng.CacheLen() != 0 {
		t.Fatal("fallback did not clear the cache")
	}
}

// TestStaleByAppendDetectsEqualTimeAppend: an append at exactly the
// stream clock leaves MaxTime where it was, yet it lands in the window
// of every row memoized past the clock. Its invalidation must drop
// those rows. (A pass cannot run between the append and that
// invalidation when the writer holds the graph's write gate:
// TestReadBetweenIngestAndInvalidateL3.)
func TestStaleByAppendDetectsEqualTimeAppend(t *testing.T) {
	m, dyn, eng, stream := oooSetup(t, 0)
	wm := dyn.MaxTime()
	last := stream[len(stream)-1]
	nodes, ts := []int32{last.Src, last.Dst}, []float64{wm + 1, wm + 1}
	eng.Embed(nodes, ts)
	if _, err := dyn.Append(graph.Edge{Src: last.Src, Dst: last.Dst, Time: wm}); err != nil {
		t.Fatal(err)
	}
	if dyn.MaxTime() != wm {
		t.Fatal("test premise broken: equal-time append advanced MaxTime")
	}
	if eng.InvalidateEdge(last.Src, last.Dst, wm) == 0 {
		t.Fatal("the equal-time append invalidated no row memoized past the clock")
	}
	if !sameBits(eng.Embed(nodes, ts), freshBaseline(t, m, dyn, nodes, ts)) {
		t.Fatal("rows past the clock differ from the baseline after an equal-time append")
	}
}

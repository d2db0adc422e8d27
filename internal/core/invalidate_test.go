package core

import (
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

func TestCacheRemove(t *testing.T) {
	c := NewCache(10, 2, 2)
	c.Store([]uint64{1, 2, 3}, tensor.Ones(3, 2))
	if n := c.Remove([]uint64{2, 99}); n != 1 {
		t.Fatalf("Remove returned %d, want 1", n)
	}
	if c.Contains(2) || !c.Contains(1) || !c.Contains(3) {
		t.Fatal("Remove removed the wrong entries")
	}
	// Eviction still works after removals churn the FIFO.
	c2 := NewCache(2, 1, 1)
	c2.Store([]uint64{1, 2}, tensor.Ones(2, 1))
	c2.Remove([]uint64{1})
	c2.Store([]uint64{3}, tensor.Ones(1, 1))
	c2.Store([]uint64{4}, tensor.Ones(1, 1)) // must evict 2 (1 is stale in FIFO)
	if c2.Contains(2) || !c2.Contains(3) || !c2.Contains(4) {
		t.Fatal("eviction confused by removed FIFO entries")
	}
}

// freshBaseline recomputes embeddings from scratch on the current graph
// state, bypassing every cache.
func freshBaseline(t *testing.T, m *tgat.Model, dyn *graph.Dynamic, ns []int32, ts []float64) *tensor.Tensor {
	t.Helper()
	s := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	return m.Embed(s, ns, ts)
}

// deleteEdge removes e from the graph and runs the engine's deletion
// invalidation, returning the number of entries it dropped.
func deleteEdge(t *testing.T, dyn *graph.Dynamic, eng *Engine, e graph.Edge) int {
	t.Helper()
	if !dyn.DeleteEdge(e.Idx) {
		t.Fatalf("DeleteEdge(%d) found nothing", e.Idx)
	}
	if dyn.DeleteEdge(e.Idx) {
		t.Fatal("double delete succeeded")
	}
	return eng.InvalidateEdge(e.Src, e.Dst, e.Time)
}

func TestInvalidateNodeFeatureChange(t *testing.T) {
	m, dyn, eng, stream := oooSetup(t, 0)
	victim := stream[100].Src
	queryT := dyn.MaxTime() + 1
	ns := []int32{victim, stream[100].Dst, 1}
	ts := []float64{queryT, queryT, queryT}

	// Sanity: warm engine agrees with fresh baseline before the change.
	if !sameBits(eng.Embed(ns, ts), freshBaseline(t, m, dyn, ns, ts)) {
		t.Fatal("pre-change disagreement")
	}

	// Mutate the victim's feature row (the §7 node-feature-change event).
	row := m.NodeFeat.Row(int(victim))
	for j := range row {
		row[j] += 3
	}

	// Without invalidation the cache is stale.
	fresh := freshBaseline(t, m, dyn, ns, ts)
	if sameBits(eng.Embed(ns, ts), fresh) {
		t.Fatal("feature change had no effect (test is vacuous)")
	}

	// A feature row is read at every time, so every layer clears.
	before := eng.CacheLen()
	if removed := eng.InvalidateNode(victim); removed != before {
		t.Fatalf("InvalidateNode removed %d of %d entries", removed, before)
	}
	if eng.CacheLen() != 0 || eng.IndexFor(1).Len() != 0 {
		t.Fatal("InvalidateNode left cache entries or index records behind")
	}
	if !sameBits(eng.Embed(ns, ts), fresh) {
		t.Fatal("post-invalidation disagreement")
	}
}

func TestInvalidateEdgeDeletion(t *testing.T) {
	// A lateness window wider than the stream keeps every deletion at or
	// above ⌊watermark⌋, where it runs the late-edge rule.
	m, dyn, eng, stream := oooSetup(t, 1e9)
	victim := stream[len(stream)/2]
	before := eng.CacheLen()
	removed := deleteEdge(t, dyn, eng, victim)
	if removed == 0 {
		t.Fatal("a mid-stream deletion invalidated nothing")
	}
	if removed == before || eng.CacheLen() != before-removed {
		t.Fatalf("deletion was not selective: removed %d of %d, %d left", removed, before, eng.CacheLen())
	}
	queryT := dyn.MaxTime() + 1
	ns := []int32{victim.Src, victim.Dst}
	ts := []float64{queryT, queryT}
	if !sameBits(eng.Embed(ns, ts), freshBaseline(t, m, dyn, ns, ts)) {
		t.Fatal("post-deletion disagreement at the head")
	}
	// Also verify at the timestamps that were actually cached.
	replayExact(t, m, dyn, eng, stream, "deletion")
}

func TestInvalidateEdgeOutsideWindowsPreservesReuse(t *testing.T) {
	// Deleting an interaction that no cached window holds must not drop
	// anything: "maximizing reuse" (§7). Node 1 interacts with node 9
	// once, at t=5, then ten times with nodes 2–4; the only query is
	// ⟨1, 150⟩, whose most-recent-5 window holds none of node 9's edge,
	// and node 9 itself is never cached.
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
	old := graph.Edge{Src: 1, Dst: 9, Time: 5, Idx: 1}
	edges := []graph.Edge{old}
	for i := 0; i < 10; i++ {
		edges = append(edges, graph.Edge{Src: 1, Dst: int32(2 + i%3), Time: float64(10 * (i + 1)), Idx: int32(i + 2)})
	}
	for _, e := range edges {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())
	ns, ts := []int32{1}, []float64{150}
	eng.Embed(ns, ts)
	before := eng.CacheLen()
	if before == 0 {
		t.Fatal("warming query cached nothing")
	}
	if removed := deleteEdge(t, dyn, eng, old); removed != 0 || eng.CacheLen() != before {
		t.Fatalf("out-of-window deletion removed %d entries, %d of %d left", removed, eng.CacheLen(), before)
	}
	// Only 2 interactions in (80, 150): the window shifts, entries drop.
	if removed := deleteEdge(t, dyn, eng, edges[8]); removed == 0 {
		t.Fatal("in-window deletion removed nothing")
	}
	if !sameBits(eng.Embed(ns, ts), freshBaseline(t, m, dyn, ns, ts)) {
		t.Fatal("post-deletion disagreement")
	}
}

func TestInvalidateEdgeDeepKeepsUnreachedEntries(t *testing.T) {
	// L = 3: the deletion runs the late-edge rule with its transitive
	// rules, so layer 2 keeps every entry no displaced window reaches.
	m, dyn, eng, stream := transSetup(t, 200, OptAll())
	victim := stream[len(stream)-20]
	if victim.Time < dyn.Watermark() {
		t.Fatal("fixture: the victim lies below the watermark")
	}
	if removed := deleteEdge(t, dyn, eng, victim); removed == 0 {
		t.Fatal("deleting an edge between busy nodes invalidated nothing")
	}
	if eng.CacheFor(2).Len() == 0 {
		t.Fatal("deletion cleared layer 2 whole")
	}
	replayExact(t, m, dyn, eng, stream, "deep deletion")
}

func TestInvalidateEdgeBelowWatermarkClearsAll(t *testing.T) {
	// Records between an edge below ⌊watermark⌋ and the watermark may be
	// retired already, so such a deletion clears every layer and reports
	// everything it dropped.
	m, dyn, eng, stream := transSetup(t, 200, OptAll())
	victim := stream[10]
	if victim.Time >= dyn.Watermark()-1 {
		t.Fatal("fixture: the victim is not below the watermark")
	}
	before := eng.CacheLen()
	if removed := deleteEdge(t, dyn, eng, victim); removed != before {
		t.Fatalf("below-watermark deletion removed %d of %d entries", removed, before)
	}
	for l := 1; l <= 2; l++ {
		if eng.CacheFor(l).Len() != 0 || eng.IndexFor(l).Len() != 0 {
			t.Fatalf("layer %d kept entries or index records", l)
		}
	}
	replayExact(t, m, dyn, eng, stream, "below-watermark deletion")
}

func TestInvalidateDeepCachesCleared(t *testing.T) {
	// A 3-layer model caches layers 1 and 2; a feature write clears both.
	ds, _, _ := engineTestSetup(t, 300)
	cfg := engineTestConfig()
	cfg.Layers = 3
	m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
	eng := NewEngine(m, s, OptAll())
	edges := ds.Graph.Edges()[:60]
	ns := make([]int32, 2*len(edges))
	ts := make([]float64, 2*len(edges))
	for i, e := range edges {
		ns[i], ns[len(edges)+i] = e.Src, e.Dst
		ts[i], ts[len(edges)+i] = e.Time, e.Time
	}
	eng.Embed(ns, ts)
	if eng.CacheFor(2) == nil || eng.CacheFor(2).Len() == 0 {
		t.Fatal("layer-2 cache not populated")
	}
	before := eng.CacheLen()
	if removed := eng.InvalidateNode(edges[0].Src); removed != before {
		t.Fatalf("InvalidateNode removed %d of %d entries", removed, before)
	}
	if eng.CacheFor(1).Len() != 0 || eng.CacheFor(2).Len() != 0 {
		t.Fatal("a cached layer survived the feature write")
	}
}

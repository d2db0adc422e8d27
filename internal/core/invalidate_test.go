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

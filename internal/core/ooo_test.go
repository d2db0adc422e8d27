package core

import (
	"math"
	"slices"
	"testing"

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

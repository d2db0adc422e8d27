package core

import (
	"fmt"
	"testing"

	"tgopt/internal/graph"
)

// forEachEngineMode runs f as one subtest per engine configuration the
// layer caches must be exact in: §4.1 dedup on and off, under both
// admission policies.
func forEachEngineMode(t *testing.T, f func(t *testing.T, opt Options)) {
	for _, m := range []struct {
		name   string
		dedup  bool
		policy CachePolicy
	}{
		{"tinylfu", true, CacheTinyLFU},
		{"tinylfu-nodedup", false, CacheTinyLFU},
		{"fifo", true, CacheFIFO},
		{"fifo-nodedup", false, CacheFIFO},
	} {
		t.Run(m.name, func(t *testing.T) {
			opt := OptAll()
			opt.EnableDedup, opt.CachePolicy = m.dedup, m.policy
			f(t, opt)
		})
	}
}

// layerCacheEngine builds an engine over the fixture's graph without the
// top-layer memo, so every answer goes through the layer caches, and
// returns it with a check that an answer is bitwise the baseline's on
// the current graph.
func (f *topMemoFixture) layerCacheEngine(opt Options) (*Engine, func(label string, nodes []int32, ts []float64)) {
	k := f.m.Cfg.NumNeighbors
	eng := NewEngine(f.m, graph.NewDynamicSampler(f.dyn, k, graph.MostRecent, 0), opt)
	eng.topMemo = nil
	check := func(label string, nodes []int32, ts []float64) {
		f.t.Helper()
		got := eng.Embed(nodes, ts)
		want := f.m.BaselineEmbedFunc(graph.NewDynamicSampler(f.dyn, k, graph.MostRecent, 0))(nodes, ts)
		if !sameBits(got, want) {
			f.t.Fatalf("%s: rows differ from the baseline", label)
		}
	}
	return eng, check
}

// TestOutOfDomainTimesAreMisses: a time outside Key's domain
// (fractional, negative, or at least 2³²) shares its key with an
// in-domain time, and must still be answered as its own time — never
// with that time's row — in one call (§4.1 dedup) and across calls (the
// layer cache).
func TestOutOfDomainTimesAreMisses(t *testing.T) {
	forEachEngineMode(t, func(t *testing.T, opt Options) {
		const v = 5
		for _, delta := range []float64{0.25, 1 << 32, -(1 << 33)} {
			f := newTopMemoFixture(t, 2)
			in, out := f.now, f.now+delta
			if Key(v, in) != Key(v, out) || inKeyDomain(out) {
				t.Fatalf("fixture: t = %v is not a folded out-of-domain time", out)
			}
			_, check := f.layerCacheEngine(opt)
			label := fmt.Sprintf("δ=%v", delta)
			check(label+" one call", []int32{v, v}, []float64{in, out})

			// Across calls on a fresh engine: the in-domain row is cached
			// first, and must neither answer the out-of-domain time nor
			// be overwritten by it.
			_, check = f.layerCacheEngine(opt)
			for i, tm := range []float64{in, out, in, out} {
				check(fmt.Sprintf("%s call %d", label, i), []int32{v}, []float64{tm})
			}
		}
	})
}

// TestOutOfDomainEdgeTimeIsAMiss: a 3-layer model caches layers 1 and 2.
// An edge at a fractional time puts that time into both layers as a
// neighbor's query time, folded onto the integral time cached just
// before.
func TestOutOfDomainEdgeTimeIsAMiss(t *testing.T) {
	forEachEngineMode(t, func(t *testing.T, opt Options) {
		f := newTopMemoFixture(t, 3)
		eng, check := f.layerCacheEngine(opt)
		const x, y = 5, 9
		n := f.now
		check("warm", []int32{x, y}, []float64{n, n})
		if eng.CacheFor(1).Len() == 0 || eng.CacheFor(2).Len() == 0 {
			t.Fatal("warming pass left a layer cache empty")
		}
		tm := n + 0.5
		if _, _, err := f.dyn.Ingest(graph.Edge{Src: x, Dst: y, Time: tm, Idx: f.nextIdx}); err != nil {
			t.Fatal(err)
		}
		eng.InvalidateAppend(x, y, tm)
		check("through the fractional edge", []int32{y, x}, []float64{n + 1, n + 1})
		check("re-ask", []int32{y, x, x}, []float64{n + 1, n + 1, n})
		check("the fractional time itself", []int32{x, y}, []float64{tm, tm})
	})
}

// TestDedupFoldsOnlyIdenticalTimes: §4.1 dedup folds two targets only
// if their nodes are equal and their times have equal bits, whatever
// Key they share.
func TestDedupFoldsOnlyIdenticalTimes(t *testing.T) {
	nodes := []int32{5, 5, 5, 5, 5, 6}
	ts := []float64{10, 10.25, 10 + (1 << 32), 10 - (1 << 33), 10, 10}
	res := DedupFilter(nodes, ts)
	if res.Unique() != 5 {
		t.Fatalf("%d unique of %v, want 5", res.Unique(), ts)
	}
	for i, r := range res.InvIdx {
		if res.Nodes[r] != nodes[i] || res.Times[r] != ts[i] {
			t.Fatalf("target %d restored as ⟨%d, %v⟩", i, res.Nodes[r], res.Times[r])
		}
	}
	if ComputeKeysInto(make([]uint64, len(nodes)), nodes, ts) {
		t.Fatal("ComputeKeysInto reported out-of-domain times as inside")
	}
	if !ComputeKeysInto(make([]uint64, 2), []int32{5, 6}, []float64{0, (1 << 32) - 1}) {
		t.Fatal("ComputeKeysInto reported in-domain times as outside")
	}
}

package core

import (
	"math"
	"slices"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// TestIndexRetiresBelowWatermark: a record below the floor is never
// recorded, one at or above it survives, and once the floor passes a
// record the next scan of its node retires it — the window scan's and
// CollectUpper's alike.
func TestIndexRetiresBelowWatermark(t *testing.T) {
	win, up := NewWindowIndex(), NewWindowIndex()
	for _, ix := range []*WindowIndex{win, up} {
		ix.Record(5, 100, 9.9, 10) // below the floor: never recorded
		ix.Record(5, 101, 10, 10)  // at the floor
		ix.Record(5, 102, 14, 10)
		if ix.Len() != 2 {
			t.Fatalf("Len = %d after one record below the floor and two at or above it, want 2", ix.Len())
		}
	}
	// The floor rises to 12: a scan that collects nothing still retires 101.
	if got := win.collect(5, 20, 12, nil); len(got) != 0 || win.Len() != 1 {
		t.Fatalf("collect past every record = %v, Len %d; want nothing collected and 101 retired", got, win.Len())
	}
	if got := win.collect(5, 11, 12, nil); len(got) != 1 || got[0] != 102 {
		t.Fatalf("collect(5, 11) = %v, want [102]", got)
	}
	if got := up.collect(5, 20, 12, nil); len(got) != 0 || up.Len() != 1 {
		t.Fatalf("collect past every record = %v, Len %d; want nothing collected and 101 retired", got, up.Len())
	}
	if got := up.CollectUpper(Key(5, 14), 12); len(got) != 1 || got[0] != 102 {
		t.Fatalf("CollectUpper(5@14) = %v, want [102]", got)
	}
	// An emptied list keeps its map slot and backing array.
	if list, ok := win.shardFor(5).m[5]; !ok || cap(list) == 0 {
		t.Fatal("an emptied list left the map")
	}
}

// TestCollectUpperMatchesAcrossIntegerFloor: the floor is ⌊watermark⌋,
// not the watermark. A support read at 10.3 under a watermark of 10.5
// stays indexed, and an edge at the watermark that displaces the lower
// entry ⟨3, 10.7⟩ — the same truncated key — still reaches it.
func TestCollectUpperMatchesAcrossIntegerFloor(t *testing.T) {
	dyn := graph.NewDynamic(4)
	dyn.SetLateness(0.5)
	if _, err := dyn.Append(graph.Edge{Src: 1, Dst: 2, Time: 11}); err != nil {
		t.Fatal(err)
	}
	eng := &Engine{dyn: dyn}
	floor := eng.indexFloor(math.Inf(1))
	if dyn.Watermark() != 10.5 || floor != 10 {
		t.Fatalf("watermark %v, floor %v; want 10.5 and 10", dyn.Watermark(), floor)
	}
	ix := NewWindowIndex()
	ix.Record(3, 200, 10.3, floor)
	if got := ix.CollectUpper(Key(3, 10.7), eng.indexFloor(10.5)); len(got) != 1 || got[0] != 200 {
		t.Fatalf("CollectUpper(3@10.7) = %v, want [200]", got)
	}
}

// TestIndexRetirementMatchesKeepAll is the differential pin: one
// single-threaded history of embeds, appends and late edges at and near
// the watermark runs through two 3-layer engines over one graph, one
// retiring records at the watermark floor and one whose floor is pinned
// at −∞. After every edge both hold the same keys on every cached layer
// (the edge dropped the same set), and every reply equals the baseline
// bit for bit.
func TestIndexRetirementMatchesKeepAll(t *testing.T) {
	const nodes, lateness = 12, 30
	r := tensor.NewRNG(23)
	nodeFeat := tensor.Randn(r, nodes+1, 8)
	edgeFeat := tensor.Randn(r, 1024, 8)
	for j := 0; j < 8; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 3, Heads: 2, NodeDim: 8, EdgeDim: 8, TimeDim: 8, NumNeighbors: 3, Seed: 5}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(lateness)
	// Integral times: Key is exact on them, so the engines equal the
	// baseline bit for bit.
	now, idx := 0.0, int32(1)
	pick := func() (int32, int32) { return int32(1 + r.Intn(nodes)), int32(1 + r.Intn(nodes)) }
	for ; idx <= 150; idx++ {
		now += float64(1 + r.Intn(3))
		src, dst := pick()
		if _, err := dyn.Append(graph.Edge{Src: src, Dst: dst, Time: now, Idx: idx}); err != nil {
			t.Fatal(err)
		}
	}
	sampler := func() *graph.Sampler { return graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0) }
	retire, keep := NewEngine(m, sampler(), OptAll()), NewEngine(m, sampler(), OptAll())
	keep.keepAll = true
	base := m.BaselineEmbedFunc(sampler())

	ask := func(step int) {
		t.Helper()
		// Every node below, at and above the watermark, at the clock and
		// ahead of it.
		wm := dyn.Watermark()
		var ns []int32
		var ts []float64
		for v := int32(1); v <= nodes; v++ {
			for _, at := range []float64{wm - 3, wm, wm + 2, now, now + 4} {
				ns, ts = append(ns, v), append(ts, at)
			}
		}
		want := base(ns, ts)
		for name, e := range map[string]*Engine{"retiring": retire, "keep-all": keep} {
			if got := e.Embed(ns, ts); !sameBits(got, want) {
				t.Fatalf("step %d: %s engine differs from the baseline", step, name)
			}
		}
	}
	ask(-1)
	removed := 0
	for step := 0; step < 120; step++ {
		wm := dyn.Watermark()
		var tm float64
		switch step % 4 {
		case 0:
			tm = now + float64(r.Intn(3)) // append, at the clock or past it
		case 1:
			tm = wm // late, at the watermark
		case 2:
			tm = wm + float64(1+r.Intn(5)) // late, just inside it
		case 3:
			tm = wm - 1 // below the watermark: dropped
		}
		src, dst := pick()
		res, _, err := dyn.Ingest(graph.Edge{Src: src, Dst: dst, Time: tm, Idx: idx})
		if err != nil {
			t.Fatal(err)
		}
		if res == graph.IngestDropped {
			continue
		}
		idx++
		now = max(now, tm)
		var n [2]int
		for i, e := range []*Engine{retire, keep} {
			n[i] = e.InvalidateEdge(src, dst, tm)
		}
		if n[0] != n[1] {
			t.Fatalf("step %d: edge at %v dropped %d entries retiring, %d keeping every record", step, tm, n[0], n[1])
		}
		removed += n[0]
		for l := 1; l < cfg.Layers; l++ {
			a, b := retire.caches[l].Keys(), keep.caches[l].Keys()
			slices.Sort(a)
			slices.Sort(b)
			if !slices.Equal(a, b) {
				t.Fatalf("step %d: layer %d holds %d keys retiring, %d keeping every record", step, l, len(a), len(b))
			}
		}
		ask(step)
	}
	if removed == 0 {
		t.Fatal("the history invalidated nothing: the differential is vacuous")
	}
	for l := 1; l < cfg.Layers; l++ {
		got, all := retire.LayerCacheStats()[l-1].IndexRecords, keep.LayerCacheStats()[l-1].IndexRecords
		if got >= all {
			t.Fatalf("layer %d: %d live records retiring vs %d keeping every record: nothing retired", l, got, all)
		}
		t.Logf("layer %d: %d live index records retiring, %d keeping every record", l, got, all)
	}
}

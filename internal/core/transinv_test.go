package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// transSetup is oooSetup with a 3-layer model: both layer 1 and layer 2
// are cached, so deep-layer transitive invalidation (DESIGN.md §11) is
// on the line. Timestamps are distinct integers, inside Key's domain.
func transSetup(t *testing.T, lateness float64, opt Options) (*tgat.Model, *graph.Dynamic, *Engine, []graph.Edge) {
	t.Helper()
	r := tensor.NewRNG(5)
	const nodes, total = 25, 500
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
	cfg := tgat.Config{Layers: 3, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 11}
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
	eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), opt)
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
	if eng.CacheFor(2) == nil || eng.CacheFor(2).Len() == 0 {
		t.Fatal("warming pass left the layer-2 cache empty")
	}
	return m, dyn, eng, stream
}

// replayExact re-embeds the whole warmed query set and compares against
// a fresh no-cache baseline, failing on any surviving stale entry.
func replayExact(t *testing.T, m *tgat.Model, dyn *graph.Dynamic, eng *Engine, stream []graph.Edge, label string) {
	t.Helper()
	for start := 0; start < len(stream); start += 125 {
		end := start + 125
		if end > len(stream) {
			end = len(stream)
		}
		batch := stream[start:end]
		ns := make([]int32, 2*len(batch))
		ts := make([]float64, 2*len(batch))
		for i, e := range batch {
			ns[i], ns[len(batch)+i] = e.Src, e.Dst
			ts[i], ts[len(batch)+i] = e.Time, e.Time
		}
		if !sameBits(eng.Embed(ns, ts), freshBaseline(t, m, dyn, ns, ts)) {
			t.Fatalf("%s: replay at offset %d differs from the recompute", label, start)
		}
	}
}

func TestSupportShedFallsBackToDeepClear(t *testing.T) {
	// Shedding only arises when the watermark floor never passes a hot
	// node's records. Simulate the overflow directly instead of running
	// one: flood a record list past the cap.
	_, dyn, eng, stream := transSetup(t, 200, OptAll())
	ix := eng.IndexFor(2)
	if ix == nil {
		t.Fatal("no layer-2 window index")
	}
	if ix.Shed() {
		t.Fatal("shed flag set before overflow")
	}
	retained := NewWindowIndex()
	for i := 0; i <= nodeRecordCap; i++ {
		retained.Record(7, uint64(i), float64(i), 0)
	}
	if !retained.Shed() {
		t.Fatal("cap overflow did not shed")
	}
	// Splice the shed index in as if it were a middle layer's and verify
	// the next invalidation degrades to the conservative deep clear.
	eng.indexes[2] = retained
	total := len(stream)
	tLate := (stream[total-20].Time + stream[total-19].Time) / 2
	u, v := stream[total-20].Src, stream[total-19].Dst
	if u == v {
		v = stream[total-18].Dst
	}
	if _, _, err := dyn.Ingest(graph.Edge{Src: u, Dst: v, Time: tLate, Idx: int32(total + 1)}); err != nil {
		t.Fatal(err)
	}
	eng.InvalidateEdge(u, v, tLate)
	if n := eng.CacheFor(2).Len(); n != 0 {
		t.Fatalf("shed fallback left %d layer-2 entries", n)
	}
	if retained.Shed() {
		t.Fatal("conservative clear did not reset the shed flag")
	}
}

func TestWindowIndexCollectUpper(t *testing.T) {
	ix := NewWindowIndex()
	ix.Record(0, 1, 1, 0) // padding: skipped
	if ix.Len() != 0 {
		t.Fatal("padding node recorded")
	}
	k10 := Key(3, 10)
	k20 := Key(3, 20)
	ix.Record(3, 100, 10, 0)
	ix.Record(3, 101, 20, 0)
	ix.Record(3, 102, 20, 0)
	ix.Record(4, 200, 15, 0)

	// collect: strictly-after t, drop consulted per record.
	got := ix.collect(3, 10, 0, func(upper uint64, st float64) bool { return upper != 102 })
	if len(got) != 1 || got[0] != 101 {
		t.Fatalf("collect = %v, want [101]", got)
	}
	if got := ix.collect(3, 10, 0, nil); len(got) != 1 || got[0] != 102 {
		t.Fatalf("declined record not retained: %v", got)
	}
	// Record at st == t is not displaced (window is strictly-before-t').
	if got := ix.collect(3, 10, 0, nil); len(got) != 0 {
		t.Fatalf("st == t collected: %v", got)
	}

	// CollectUpper matches through the Key encoding.
	if got := ix.CollectUpper(k20, 0); len(got) != 0 {
		t.Fatalf("drained key matched again: %v", got)
	}
	if got := ix.CollectUpper(k10, 0); len(got) != 1 || got[0] != 100 {
		t.Fatalf("CollectUpper(k10) = %v, want [100]", got)
	}
	if got := ix.CollectUpper(Key(4, 15), 0); len(got) != 1 || got[0] != 200 {
		t.Fatalf("CollectUpper(4@15) = %v, want [200]", got)
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after draining everything", ix.Len())
	}

	// Reset clears records and the shed flag.
	for i := 0; i <= nodeRecordCap; i++ {
		ix.Record(9, uint64(i), float64(i), 0)
	}
	if !ix.Shed() {
		t.Fatal("overflow did not shed")
	}
	ix.Reset()
	if ix.Shed() || ix.Len() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWindowIndexAlivePrune(t *testing.T) {
	// A record is alive until the watermark floor passes it. The
	// every-1024 compaction under one node retires the dead ones even if
	// no edge ever scans that node.
	ix := NewWindowIndex()
	for i := 0; i < 1500; i++ {
		floor := 0.0
		if i >= 1023 {
			floor = 1000
		}
		ix.Record(5, uint64(i), float64(i), floor)
	}
	if n := ix.Len(); n != 500 {
		t.Fatalf("Len = %d after the compaction at floor 1000, want 500", n)
	}
	// A zero floor retires nothing on this scan, so a miss means the
	// compaction already dropped the record.
	if got := ix.CollectUpper(Key(5, 3), 0); len(got) != 0 {
		t.Fatalf("pruned record still indexed: %v", got)
	}
	if got := ix.CollectUpper(Key(5, 1200), 0); len(got) != 1 || got[0] != 1200 {
		t.Fatalf("CollectUpper(5@1200) = %v, want [1200]", got)
	}
}

// TestReadBetweenIngestAndInvalidateL3: at L = 3 a pass that ran
// between dyn.Ingest of a late edge and its InvalidateEdge would hit
// the layer-1 row ⟨u, T⟩ the edge displaces and build y's layer-2 row
// at T+1 on it. Parked on the layer-2 window index before it records
// u as that row's neighbour, it would index the row only after the
// invalidation's scan, and the row would outlive the invalidation. The
// writer holds the graph's write gate across both steps, so the pass
// starts only after the invalidation: the pass and every later answer
// are the baseline's.
func TestReadBetweenIngestAndInvalidateL3(t *testing.T) {
	f := newTopMemoFixture(t, 3)
	u, y, v, w, T := readBetweenCase(t, f)
	l1, l2 := f.eng.CacheFor(1), f.eng.CacheFor(2)
	f.eng.Embed([]int32{u}, []float64{T})
	if !l1.Contains(Key(u, T)) {
		t.Fatal("warming left ⟨u, T⟩ out of layer 1")
	}
	nodes, ts := []int32{y}, []float64{T + 1}
	s := f.eng.IndexFor(2).shardFor(w)
	s.mu.Lock()
	ingested, parked, wrote := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		gate := f.dyn.Gate()
		gate.Lock()
		if res, _, err := f.dyn.Ingest(graph.Edge{Src: u, Dst: v, Time: T - 0.5, Idx: f.nextIdx}); err != nil || res != graph.IngestLate {
			t.Errorf("late ingest: %v, %v", res, err)
		}
		close(ingested)
		select { // a pass that got in would park by now
		case <-parked:
		case <-time.After(50 * time.Millisecond):
		}
		f.eng.InvalidateEdge(u, v, T-0.5)
		close(wrote) // before the gate opens to the pass
		gate.Unlock()
	}()
	<-ingested
	var got *tensor.Tensor
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = f.eng.Embed(nodes, ts)
	}()
	for !l2.Contains(Key(y, T+1)) { // stored, now parked on the window index
		select {
		case <-done:
			s.mu.Unlock()
			t.Fatal("the pass finished without storing y's layer-2 row")
		default:
			runtime.Gosched()
		}
	}
	select {
	case <-wrote:
	default:
		t.Error("the pass stored a layer-2 row between the write and its invalidation")
	}
	close(parked)
	<-wrote
	s.mu.Unlock()
	<-done
	want := freshBaseline(t, f.m, f.dyn, nodes, ts)
	if !sameBits(got, want) {
		t.Error("the pass issued between the write and its invalidation differs from the baseline")
	}
	if !sameBits(f.eng.Embed(nodes, ts), want) {
		t.Fatal("the re-ask differs from the baseline: a layer-2 row built on the displaced layer-1 row survived")
	}
}

// readBetweenCase finds a late-edge target for the test above: y's
// latest interaction before T+1 is (u, y, T), v is the late edge's other
// endpoint, and w sits in y's window at T+1 in a slot before u's, in a
// window-index shard neither u's nor v's, so a pass parked on w's
// shard has not recorded u yet while the invalidation's scan runs.
func readBetweenCase(t *testing.T, f *topMemoFixture) (u, y, v, w int32, T float64) {
	t.Helper()
	ix := f.eng.IndexFor(2)
	edges := f.dyn.Edges()
	k := f.m.Cfg.NumNeighbors
	b := graph.Batch{K: k, Nghs: make([]int32, k), EIdxs: make([]int32, k), Times: make([]float64, k), Valid: make([]bool, k)}
	sampler := graph.NewDynamicSampler(f.dyn, k, graph.MostRecent, 0)
	for i := len(edges) - 20; i > len(edges)-120; i-- {
		u, y, T = edges[i].Src, edges[i].Dst, edges[i].Time
		if u == y {
			continue
		}
		for v = 1; v == u || v == y; v++ {
		}
		sampler.SampleTo(&b, []int32{y}, []float64{T + 1})
		for j := 0; j < k && b.Nghs[j] != u; j++ {
			if c := b.Nghs[j]; c != 0 && ix.shardFor(c) != ix.shardFor(u) && ix.shardFor(c) != ix.shardFor(v) {
				return u, y, v, c, T
			}
		}
	}
	t.Fatal("no late-edge target with a parking support before u")
	return
}

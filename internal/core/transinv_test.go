package core

import (
	"math"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// transSetup is oooSetup with a 3-layer model: both layer 1 and layer 2
// are cached, so deep-layer transitive invalidation (DESIGN.md §15) is
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

func TestTransitiveInvalidateLateEdgeDeepExactness(t *testing.T) {
	m, dyn, eng, stream := transSetup(t, 200, OptAll())
	if eng.SupportsFor(2) == nil || eng.SupportsFor(2).Len() == 0 {
		t.Fatal("layer-2 support index recorded nothing")
	}
	total := len(stream)
	tLate := (stream[total-20].Time + stream[total-19].Time) / 2
	u, v := stream[total-20].Src, stream[total-19].Dst
	if u == v {
		v = stream[total-18].Dst
	}
	res, _, err := dyn.Ingest(graph.Edge{Src: u, Dst: v, Time: tLate, Idx: int32(total + 1)})
	if err != nil || res != graph.IngestLate {
		t.Fatalf("late ingest: res=%v err=%v", res, err)
	}

	deepBefore := eng.CacheFor(2).Len()
	removed := eng.InvalidateLateEdge(u, v, tLate)
	if removed == 0 {
		t.Fatal("late edge between busy nodes invalidated nothing")
	}
	if eng.CacheFor(2).Len() == 0 {
		t.Fatalf("deep invalidation was not selective: all %d layer-2 entries dropped", deepBefore)
	}
	replayExact(t, m, dyn, eng, stream, "late edge")
}

func TestTransitiveInvalidateAppendDeepExactness(t *testing.T) {
	m, dyn, eng, stream := transSetup(t, 0, OptAll())
	// Embed a few targets in the future so appends have memos to displace.
	total := len(stream)
	future := dyn.MaxTime() + 10
	futureNs := []int32{stream[total-1].Src, stream[total-1].Dst, stream[total-2].Src, stream[total-3].Dst}
	futureTs := []float64{future, future, future, future}
	eng.Embed(futureNs, futureTs)

	u, v := stream[total-1].Src, stream[total-2].Src
	if u == v {
		v = stream[total-2].Dst
	}
	tNew := dyn.MaxTime() + 2 // below the future-time memos
	res, _, err := dyn.Ingest(graph.Edge{Src: u, Dst: v, Time: tNew, Idx: int32(total + 1)})
	if err != nil || res != graph.IngestAppended {
		t.Fatalf("append ingest: res=%v err=%v", res, err)
	}
	eng.InvalidateAppend(u, v, tNew)
	if eng.CacheFor(2).Len() == 0 {
		t.Fatal("append invalidation cleared the whole deep cache")
	}
	replayExact(t, m, dyn, eng, stream, "append")
	if d := eng.Embed(futureNs, futureTs).MaxAbsDiff(freshBaseline(t, m, dyn, futureNs, futureTs)); d > 1e-5 {
		t.Fatalf("future-time queries disagree by %g after append", d)
	}
}

func TestSupportShedFallsBackToDeepClear(t *testing.T) {
	// Shedding only arises when the watermark floor never passes a hot
	// node's records. Simulate the overflow directly instead of running
	// one: flood a record list past the cap.
	_, dyn, eng, stream := transSetup(t, 200, OptAll())
	six := eng.SupportsFor(2)
	if six == nil {
		t.Fatal("no layer-2 support index")
	}
	if six.Shed() {
		t.Fatal("shed flag set before overflow")
	}
	retained := NewSupportIndex()
	for i := 0; i <= nodeRecordCap; i++ {
		retained.Record(7, uint64(i), float64(i), 0)
	}
	if !retained.Shed() {
		t.Fatal("cap overflow did not shed")
	}
	// Splice the shed index in as if it were a middle layer's and verify
	// the next invalidation degrades to the conservative deep clear.
	eng.layerSupports[2] = retained
	total := len(stream)
	tLate := (stream[total-20].Time + stream[total-19].Time) / 2
	u, v := stream[total-20].Src, stream[total-19].Dst
	if u == v {
		v = stream[total-18].Dst
	}
	if _, _, err := dyn.Ingest(graph.Edge{Src: u, Dst: v, Time: tLate, Idx: int32(total + 1)}); err != nil {
		t.Fatal(err)
	}
	eng.InvalidateLateEdge(u, v, tLate)
	if n := eng.CacheFor(2).Len(); n != 0 {
		t.Fatalf("shed fallback left %d layer-2 entries", n)
	}
	if retained.Shed() {
		t.Fatal("conservative clear did not reset the shed flag")
	}
}

func TestSupportIndexRecordCollect(t *testing.T) {
	ix := NewSupportIndex()
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

	// CollectWindow: strictly-after t, drop consulted per record.
	got := ix.CollectWindow(3, 10, 0, func(upper uint64, st float64) bool { return upper != 102 })
	if len(got) != 1 || got[0] != 101 {
		t.Fatalf("CollectWindow = %v, want [101]", got)
	}
	if got := ix.CollectWindow(3, 10, 0, nil); len(got) != 1 || got[0] != 102 {
		t.Fatalf("declined record not retained: %v", got)
	}
	// Record at st == t is not displaced (window is strictly-before-t').
	if got := ix.CollectWindow(3, 10, 0, nil); len(got) != 0 {
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

func TestSupportIndexAlivePrune(t *testing.T) {
	// A support record is alive until the watermark floor passes it. The
	// every-1024 compaction under one node retires the dead ones even if
	// no edge ever scans that node.
	ix := NewSupportIndex()
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

// FuzzTransitiveInvalidate drives a random interleaving of appends,
// late inserts, deletions and embed batches through a 3-layer engine
// and asserts no stale deep entry survives: after every
// mutation+invalidate pair the full warmed query set must be bitwise a
// fresh no-cache recompute.
func FuzzTransitiveInvalidate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, int64(1))
	f.Add([]byte{9, 9, 9, 0, 0, 0, 7, 7}, int64(42))
	f.Add([]byte{255, 128, 64, 32, 16, 8, 4, 2, 1}, int64(7))
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 24 {
			ops = ops[:24] // bound per-input work
		}
		r := tensor.NewRNG(uint64(seed))
		const nodes, total = 12, 120
		stream := make([]graph.Edge, 0, total)
		// Integral timestamps: only times inside Key's domain are
		// cached, and late inserts below land between neighbors, so
		// every time here is a whole number.
		clock := 0.0
		for len(stream) < total {
			clock += float64(2 + r.Intn(6))
			src := int32(1 + r.Intn(nodes))
			dst := int32(1 + r.Intn(nodes))
			if src == dst {
				continue
			}
			stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: clock, Idx: int32(len(stream) + 1)})
		}
		nodeFeat := tensor.Randn(r, nodes+1, 8)
		edgeFeat := tensor.Randn(r, total+len(ops)+2, 8)
		for j := 0; j < 8; j++ {
			nodeFeat.Set(0, 0, j)
			edgeFeat.Set(0, 0, j)
		}
		cfg := tgat.Config{Layers: 3, Heads: 2, NodeDim: 8, EdgeDim: 8, TimeDim: 8, NumNeighbors: 3, Seed: 11}
		m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
		if err != nil {
			t.Fatal(err)
		}
		dyn := graph.NewDynamic(nodes)
		dyn.SetLateness(1e9) // accept arbitrarily late edges
		for _, e := range stream {
			if _, err := dyn.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())

		// Query set: every stream interaction plus a head-time probe per
		// node. Re-embedded after every event, so the caches stay warm and
		// any unsoundness surfaces as a stale hit.
		var qns []int32
		var qts []float64
		for _, e := range stream {
			qns = append(qns, e.Src, e.Dst)
			qts = append(qts, e.Time, e.Time)
		}
		check := func(step int) {
			probe := dyn.MaxTime() + 1
			ns := append(append([]int32{}, qns...), make([]int32, nodes)...)
			ts := append(append([]float64{}, qts...), make([]float64, nodes)...)
			for i := 0; i < nodes; i++ {
				ns[len(qns)+i] = int32(i + 1)
				ts[len(qts)+i] = probe
			}
			if !sameBits(eng.Embed(ns, ts), freshBaseline(t, m, dyn, ns, ts)) {
				t.Fatalf("step %d: stale entry survived", step)
			}
		}
		check(-1)

		live := append([]graph.Edge{}, stream...)
		nextIdx := int32(total + 1)
		for step, b := range ops {
			if b%5 == 4 {
				// Delete a live edge: the late-edge rule at its time.
				i := (int(b)*11 + step) % len(live)
				e := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !dyn.DeleteEdge(e.Idx) {
					t.Fatalf("step %d: DeleteEdge(%d) found nothing", step, e.Idx)
				}
				eng.InvalidateEdge(e.Src, e.Dst, e.Time)
				check(step)
				continue
			}
			u := int32(1 + (int(b)+step)%nodes)
			v := int32(1 + (int(b>>3)+3*step)%nodes)
			if u == v {
				v = v%int32(nodes) + 1
				if u == v {
					continue
				}
			}
			var et float64
			if b%3 == 0 {
				et = dyn.MaxTime() + 1 + float64(b%7) // append
			} else {
				// Late: land at a whole-number time at or after some
				// mid-stream interaction (Ingest classifies by time, so
				// picks that cross MaxTime are handled as appends).
				lo := stream[(int(b)*7+step)%(total-1)]
				et = lo.Time + float64(1+b%3)
			}
			e := graph.Edge{Src: u, Dst: v, Time: et, Idx: nextIdx}
			res, _, err := dyn.Ingest(e)
			if err != nil {
				t.Fatal(err)
			}
			switch res {
			case graph.IngestAppended:
				eng.InvalidateAppend(u, v, et)
			case graph.IngestLate:
				eng.InvalidateLateEdge(u, v, et)
			default:
				continue
			}
			nextIdx++
			live = append(live, e)
			check(step)
		}
	})
}

package graph

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"tgopt/internal/tensor"
)

func TestDynamicInsertLateSortedOrder(t *testing.T) {
	d := NewDynamic(5)
	d.SetLateness(100)
	for _, tm := range []float64{10, 20, 30, 40} {
		if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	res, idx, err := d.Ingest(Edge{Src: 1, Dst: 3, Time: 25})
	if err != nil || res != IngestLate {
		t.Fatalf("late ingest: %v, %v", res, err)
	}
	if idx == 0 {
		t.Fatal("late insert assigned no edge id")
	}
	edges := d.Edges()
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time }) {
		t.Fatalf("edge stream not time-sorted after late insert: %+v", edges)
	}
	if edges[2].Time != 25 || edges[2].Dst != 3 {
		t.Fatalf("late edge not at its sorted position: %+v", edges)
	}
	// Both endpoints see the edge in their temporal windows.
	if d.TemporalDegree(1, 26) != 3 || d.TemporalDegree(3, 26) != 1 {
		t.Fatalf("adjacency degrees wrong: deg(1)=%d deg(3)=%d",
			d.TemporalDegree(1, 26), d.TemporalDegree(3, 26))
	}
	// But not before its timestamp.
	if d.TemporalDegree(3, 25) != 0 {
		t.Fatal("late edge visible before its own timestamp")
	}
	if d.LateAccepted() != 1 || d.LateDropped() != 0 {
		t.Fatalf("counters: accepted=%d dropped=%d", d.LateAccepted(), d.LateDropped())
	}
}

func TestDynamicInsertLateAtOrPastClockAppends(t *testing.T) {
	d := NewDynamic(3)
	d.SetLateness(10)
	d.Append(Edge{Src: 1, Dst: 2, Time: 10})
	// At the clock: a plain append, no history rewrite.
	if res, _, err := d.Ingest(Edge{Src: 2, Dst: 3, Time: 10}); err != nil || res != IngestAppended {
		t.Fatalf("at the clock: %v, %v", res, err)
	}
	// Past the clock: also an append, and the clock advances.
	if res, _, err := d.Ingest(Edge{Src: 1, Dst: 3, Time: 15}); err != nil || res != IngestAppended {
		t.Fatalf("past the clock: %v, %v", res, err)
	}
	if d.LateAccepted() != 0 {
		t.Fatalf("in-order inserts counted as late: %d", d.LateAccepted())
	}
	if d.MaxTime() != 15 {
		t.Fatalf("MaxTime = %v", d.MaxTime())
	}
}

func TestDynamicWatermarkDrop(t *testing.T) {
	d := NewDynamic(3)
	d.SetLateness(5)
	d.Append(Edge{Src: 1, Dst: 2, Time: 100})
	if w := d.Watermark(); w != 95 {
		t.Fatalf("Watermark = %v, want 95", w)
	}
	if res, _, err := d.Ingest(Edge{Src: 1, Dst: 3, Time: 90}); err != nil || res != IngestDropped {
		t.Fatalf("below-watermark insert: %v, %v, want dropped", res, err)
	}
	if d.NumEdges() != 1 {
		t.Fatal("dropped edge reached the graph")
	}
	if d.LateDropped() != 1 {
		t.Fatalf("LateDropped = %d", d.LateDropped())
	}
	// Exactly at the watermark is still inside the window.
	if res, _, err := d.Ingest(Edge{Src: 1, Dst: 3, Time: 95}); err != nil || res != IngestLate {
		t.Fatalf("at-watermark insert rejected: %v, %v", res, err)
	}
}

// TestDynamicSetLatenessAfterEdgePanics: the watermark never moves back,
// so the window is fixed once the graph has held an edge — appended or
// late, and even after every edge is deleted again.
func TestDynamicSetLatenessAfterEdgePanics(t *testing.T) {
	panics := func(d *Dynamic, w float64) (p bool) {
		defer func() { p = recover() != nil }()
		d.SetLateness(w)
		return false
	}
	d := NewDynamic(3)
	if panics(d, 5) || panics(d, 50) {
		t.Fatal("SetLateness on an empty graph panicked")
	}
	if res, _, err := d.Ingest(Edge{Src: 1, Dst: 2, Time: -10}); err != nil || res != IngestLate {
		t.Fatal(res, err) // late against the empty graph's clock of 0
	}
	if !panics(d, 500) {
		t.Fatal("SetLateness after a late insert did not panic")
	}
	d = NewDynamic(3)
	idx, err := d.Append(Edge{Src: 1, Dst: 2, Time: 100})
	if err != nil {
		t.Fatal(err)
	}
	d.DeleteEdge(idx)
	if !panics(d, 500) {
		t.Fatal("SetLateness after an append, since deleted, did not panic")
	}
	if w := d.Watermark(); w != 100 {
		t.Fatalf("Watermark = %v after the refused SetLateness, want 100", w)
	}
}

func TestDynamicIngestDispatch(t *testing.T) {
	d := NewDynamic(4)
	d.SetLateness(50)
	res, _, err := d.Ingest(Edge{Src: 1, Dst: 2, Time: 100})
	if err != nil || res != IngestAppended {
		t.Fatalf("in-order: %v %v", res, err)
	}
	res, idx, err := d.Ingest(Edge{Src: 2, Dst: 3, Time: 80})
	if err != nil || res != IngestLate || idx == 0 {
		t.Fatalf("in-window: %v idx=%d err=%v", res, idx, err)
	}
	// Below the watermark: dropped is an outcome, not an error.
	res, _, err = d.Ingest(Edge{Src: 3, Dst: 4, Time: 10})
	if err != nil || res != IngestDropped {
		t.Fatalf("below-watermark: %v %v", res, err)
	}
	if d.NumEdges() != 2 || d.LateDropped() != 1 {
		t.Fatalf("edges=%d dropped=%d", d.NumEdges(), d.LateDropped())
	}
	// Invalid edges error without touching the graph or counters.
	if _, _, err := d.Ingest(Edge{Src: 0, Dst: 1, Time: 100}); err == nil {
		t.Fatal("invalid endpoint accepted")
	}
	if d.NumEdges() != 2 || d.LateDropped() != 1 {
		t.Fatal("invalid edge perturbed state")
	}
	for r, want := range map[IngestResult]string{IngestAppended: "appended", IngestLate: "late", IngestDropped: "dropped"} {
		if r.String() != want {
			t.Fatalf("IngestResult(%d).String() = %q", r, r.String())
		}
	}
}

func TestDynamicShuffledIngestMatchesSorted(t *testing.T) {
	// Window-shuffled ingestion must converge to the same graph as sorted
	// ingestion: same edge stream, same adjacency, same sampler output.
	r := tensor.NewRNG(7)
	n := 12
	const lateness = 40.0
	var edges []Edge
	clock := 0.0
	for i := 0; i < 250; i++ {
		clock += 1 + r.Float64()*3
		src := int32(1 + r.Intn(n))
		dst := int32(1 + r.Intn(n))
		if src == dst {
			continue
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Time: clock, Idx: int32(len(edges) + 1)})
	}
	// Release order: each edge delayed by up to 80% of the window, then
	// sorted by release time — arrival is shuffled but always in-window.
	type rel struct {
		e       Edge
		release float64
	}
	rels := make([]rel, len(edges))
	for i, e := range edges {
		rels[i] = rel{e, e.Time + r.Float64()*lateness*0.8}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].release < rels[j].release })

	sorted := NewDynamic(n)
	for _, e := range edges {
		if _, err := sorted.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	shuffled := NewDynamic(n)
	shuffled.SetLateness(lateness)
	for _, x := range rels {
		if res, _, err := shuffled.Ingest(x.e); err != nil || res == IngestDropped {
			t.Fatalf("in-window edge %+v: res=%v err=%v", x.e, res, err)
		}
	}

	se, de := sorted.Edges(), shuffled.Edges()
	if len(se) != len(de) {
		t.Fatalf("edge counts differ: %d vs %d", len(se), len(de))
	}
	for i := range se {
		if se[i] != de[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, se[i], de[i])
		}
	}
	ss := NewDynamicSampler(sorted, 5, MostRecent, 0)
	ds := NewDynamicSampler(shuffled, 5, MostRecent, 0)
	targets := []int32{1, 4, 7, 11}
	ts := []float64{clock / 4, clock / 2, clock, clock + 5}
	bs, bd := ss.Sample(targets, ts), ds.Sample(targets, ts)
	for i := range bs.Nghs {
		if bs.Nghs[i] != bd.Nghs[i] || bs.Times[i] != bd.Times[i] ||
			bs.EIdxs[i] != bd.EIdxs[i] || bs.Valid[i] != bd.Valid[i] {
			t.Fatalf("sampler slot %d differs after shuffled ingest", i)
		}
	}
}

func TestDynamicAppendRejectsNonFiniteTime(t *testing.T) {
	d := NewDynamic(3)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: bad}); err == nil {
			t.Fatalf("Append accepted time %v", bad)
		}
		if _, _, err := d.Ingest(Edge{Src: 1, Dst: 2, Time: bad}); err == nil {
			t.Fatalf("Ingest accepted time %v", bad)
		}
	}
	if d.NumEdges() != 0 || d.MaxTime() != 0 {
		t.Fatal("non-finite time perturbed the stream clock")
	}
	// A NaN must not have poisoned later appends.
	if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicRejectsDuplicateEdgeID(t *testing.T) {
	d := NewDynamic(3)
	if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: 1, Idx: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(Edge{Src: 2, Dst: 3, Time: 2, Idx: 7}); err == nil {
		t.Fatal("duplicate edge id accepted")
	}
	// Auto-assignment continues above explicit ids.
	idx, err := d.Append(Edge{Src: 1, Dst: 3, Time: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx <= 7 {
		t.Fatalf("auto id %d collides with explicit id space", idx)
	}
}

func TestDynamicDeleteEdge(t *testing.T) {
	d := NewDynamic(4)
	ids := make([]int32, 0, 4)
	for i, tm := range []float64{10, 20, 30, 40} {
		idx, err := d.Append(Edge{Src: int32(1 + i%3), Dst: int32(2 + i%3), Time: tm})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, idx)
	}
	if !d.DeleteEdge(ids[1]) {
		t.Fatal("delete of live edge reported false")
	}
	if d.DeleteEdge(ids[1]) {
		t.Fatal("double delete reported true")
	}
	if d.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d after delete", d.NumEdges())
	}
	for _, e := range d.Edges() {
		if e.Idx == ids[1] {
			t.Fatal("deleted edge still in the stream")
		}
	}
	// The freed id is never reused by auto-assignment.
	idx, err := d.Append(Edge{Src: 1, Dst: 2, Time: 50})
	if err != nil {
		t.Fatal(err)
	}
	if idx == ids[1] {
		t.Fatalf("auto-assignment reused deleted id %d", idx)
	}
	// Deleting an equal-time run member removes exactly the right edge.
	d2 := NewDynamic(3)
	a, _ := d2.Append(Edge{Src: 1, Dst: 2, Time: 5})
	b, _ := d2.Append(Edge{Src: 2, Dst: 3, Time: 5})
	c, _ := d2.Append(Edge{Src: 1, Dst: 3, Time: 5})
	if !d2.DeleteEdge(b) {
		t.Fatal("equal-time delete failed")
	}
	rest := d2.Edges()
	if len(rest) != 2 || rest[0].Idx != a || rest[1].Idx != c {
		t.Fatalf("equal-time run corrupted: %+v", rest)
	}
}

func TestDynamicCountBetween(t *testing.T) {
	d := NewDynamic(3)
	for _, tm := range []float64{10, 20, 30, 40, 50} {
		d.Append(Edge{Src: 1, Dst: 2, Time: tm})
	}
	// Bounds are strict on both sides.
	for _, tc := range []struct {
		lo, hi float64
		want   int
	}{
		{10, 50, 3},  // 20,30,40
		{10, 40, 2},  // 20,30
		{25, 45, 2},  // 30,40
		{50, 60, 0},  // nothing after 50
		{0, 10, 0},   // 10 excluded by strict hi
		{0, 11, 1},   // 10 included
		{45, 20, 0},  // inverted range
		{-5, 100, 5}, // everything
	} {
		if got := d.CountBetween(1, tc.lo, tc.hi); got != tc.want {
			t.Fatalf("CountBetween(1, %v, %v) = %d, want %d", tc.lo, tc.hi, got, tc.want)
		}
	}
	if d.CountBetween(99, 0, 100) != 0 {
		t.Fatal("out-of-range node should count zero")
	}
}

func TestDynamicConcurrentMutationsAndSampling(t *testing.T) {
	// Appends, late inserts, deletions, and sampling all hit one Dynamic
	// concurrently. Late inserts and deletes shift adjacency in place, so
	// a sampler that read it outside the graph's lock would tear: a slot
	// mixing two edges' fields, or a window out of time order. Both are
	// checked on every sample, so a torn read fails a plain run, not only
	// one under -race. Equivalence under concurrency is pinned end-to-end
	// in internal/serve.
	const rounds = 4000 // samples taken while the writers run
	d := NewDynamic(16)
	d.SetLateness(200)
	// Every edge a writer hands the graph is recorded first, under its
	// explicit id, so any id a sampler can see is already here.
	var producedMu sync.Mutex
	produced := make(map[int32]Edge)
	write := func(e Edge, apply func(Edge) (int32, error)) error {
		producedMu.Lock()
		produced[e.Idx] = e
		producedMu.Unlock()
		_, err := apply(e)
		return err
	}
	// Append i is edge id 1+i at time 10i; late edges take ids from
	// 1<<30 up.
	var last atomic.Int64 // the newest append's i
	appendEdge := func(i int) error {
		if err := write(Edge{Src: int32(1 + i%15), Dst: int32(2 + i%14), Time: float64(i * 10), Idx: int32(1 + i)}, d.Append); err != nil {
			return err
		}
		last.Store(int64(i))
		return nil
	}
	for i := 0; i < 100; i++ {
		if err := appendEdge(i); err != nil {
			t.Fatal(err)
		}
	}
	s := NewDynamicSampler(d, 5, MostRecent, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{}) // the sampler is done
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters() // a failed check must not leave them running
	writer := func(step func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	writer(func() error { return appendEdge(int(last.Load()) + 1) }) // drives the clock forward
	lateRNG, lateIdx := tensor.NewRNG(3), int32(1<<30)
	writer(func() error { // trails the clock inside the window
		tm := d.MaxTime() - lateRNG.Float64()*150
		lateIdx++
		e := Edge{Src: int32(1 + lateRNG.Intn(15)), Dst: int32(1 + lateRNG.Intn(15)), Time: tm, Idx: lateIdx}
		return write(e, func(e Edge) (int32, error) { // a drop below the watermark is no error
			_, idx, err := d.Ingest(e)
			return idx, err
		})
	})
	delRNG := tensor.NewRNG(4)
	writer(func() error { // deletes among the newest appends, where the windows end
		d.DeleteEdge(int32(1 + int(last.Load()) - delRNG.Intn(100)))
		return nil
	})
	// Targets span every node, at a fixed early time and just behind, at
	// and ahead of the clock, where the late inserts and deletes land.
	nodes := make([]int32, 0, 4*15)
	for v := int32(1); v <= 15; v++ {
		nodes = append(nodes, v, v, v, v)
	}
	ts := make([]float64, len(nodes))
	for round := 0; round < rounds; round++ {
		clock := d.MaxTime()
		for i := range ts {
			ts[i] = [4]float64{700, clock - 100, clock, clock + 1}[i%4]
		}
		b := s.Sample(nodes, ts)
		producedMu.Lock()
		for i, v := range nodes {
			prev := math.Inf(-1)
			for j := 0; j < 5; j++ {
				p := i*5 + j
				if !b.Valid[p] {
					continue
				}
				e, ok := produced[b.EIdxs[p]]
				if !ok || e.Time != b.Times[p] ||
					!(e.Src == v && e.Dst == b.Nghs[p] || e.Dst == v && e.Src == b.Nghs[p]) {
					producedMu.Unlock()
					t.Fatalf("target %d slot %d reads (ngh %d, edge %d, time %v): no edge the writers produced (edge %d is %+v)",
						v, j, b.Nghs[p], b.EIdxs[p], b.Times[p], b.EIdxs[p], e)
				}
				if b.Times[p] >= ts[i] || b.Times[p] < prev {
					producedMu.Unlock()
					t.Fatalf("target ⟨%d, %v⟩ slot %d at time %v after %v: window out of order or past its time",
						v, ts[i], j, b.Times[p], prev)
				}
				prev = b.Times[p]
			}
		}
		producedMu.Unlock()
	}
	stopWriters()
	// The stream must still be sorted and consistent with the id index.
	edges := d.Edges()
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time }) {
		t.Fatal("edge stream unsorted after concurrent mutations")
	}
	seen := make(map[int32]bool, len(edges))
	for _, e := range edges {
		if seen[e.Idx] {
			t.Fatalf("duplicate edge id %d in stream", e.Idx)
		}
		seen[e.Idx] = true
	}
}

// TestDynamicLateEditsAtHubAllocateNothing: a late insert and a delete
// shift the endpoints' adjacency in place, so at a node of degree 4 096
// neither copies its arrays. The edge stream and the id index grow
// amortized, so an insert-then-delete pair allocates nothing on average.
func TestDynamicLateEditsAtHubAllocateNothing(t *testing.T) {
	const hubDegree = 4096
	d := NewDynamic(hubDegree + 1)
	d.SetLateness(100)
	for i := 0; i < hubDegree; i++ {
		if _, err := d.Append(Edge{Src: 1, Dst: int32(2 + i), Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	late := d.MaxTime() - 50
	allocs := testing.AllocsPerRun(1000, func() {
		res, idx, err := d.Ingest(Edge{Src: 1, Dst: 2, Time: late})
		if err != nil || res != IngestLate || !d.DeleteEdge(idx) {
			t.Fatalf("late insert %d (%v) or its delete failed", idx, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("late insert + delete at a hub of degree %d: %v allocs per pair, want 0", hubDegree, allocs)
	}
	if got := d.TemporalDegree(1, math.Inf(1)); got != hubDegree {
		t.Fatalf("hub degree %d after the pairs, want %d", got, hubDegree)
	}
}

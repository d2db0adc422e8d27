package graph

import (
	"errors"
	"math"
	"sort"
	"sync"
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
	idx, err := d.InsertLate(Edge{Src: 1, Dst: 3, Time: 25})
	if err != nil {
		t.Fatal(err)
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
	if d.Mutations() != 1 {
		t.Fatalf("Mutations = %d after one late insert", d.Mutations())
	}
}

func TestDynamicInsertLateAtOrPastClockAppends(t *testing.T) {
	d := NewDynamic(3)
	d.SetLateness(10)
	d.Append(Edge{Src: 1, Dst: 2, Time: 10})
	// At the clock: a plain append, no history rewrite.
	if _, err := d.InsertLate(Edge{Src: 2, Dst: 3, Time: 10}); err != nil {
		t.Fatal(err)
	}
	// Past the clock: also an append, and the clock advances.
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 3, Time: 15}); err != nil {
		t.Fatal(err)
	}
	if d.Mutations() != 0 || d.LateAccepted() != 0 {
		t.Fatalf("in-order inserts counted as rewrites: mutations=%d late=%d",
			d.Mutations(), d.LateAccepted())
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
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 3, Time: 90}); !errors.Is(err, ErrStale) {
		t.Fatalf("below-watermark insert: err = %v, want ErrStale", err)
	}
	if d.NumEdges() != 1 {
		t.Fatal("dropped edge reached the graph")
	}
	if d.LateDropped() != 1 {
		t.Fatalf("LateDropped = %d", d.LateDropped())
	}
	if d.Mutations() != 0 {
		t.Fatal("drop advanced the mutation epoch")
	}
	// Exactly at the watermark is still inside the window.
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 3, Time: 95}); err != nil {
		t.Fatalf("at-watermark insert rejected: %v", err)
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
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 2, Time: -10}); err != nil {
		t.Fatal(err) // late against the empty graph's clock of 0
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
		if _, err := d.InsertLate(Edge{Src: 1, Dst: 2, Time: bad}); err == nil {
			t.Fatalf("InsertLate accepted time %v", bad)
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
	if d.Mutations() != 1 {
		t.Fatalf("Mutations = %d after one delete", d.Mutations())
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
	// Race-detector workout: appends, late inserts, deletions, and
	// sampling all hit one Dynamic concurrently. Correctness here is
	// "no race, no panic, temporal constraint holds"; equivalence under
	// concurrency is pinned end-to-end in internal/serve.
	d := NewDynamic(16)
	d.SetLateness(200)
	for i := 0; i < 100; i++ {
		d.Append(Edge{Src: int32(1 + i%15), Dst: int32(2 + i%14), Time: float64(i * 10)})
	}
	s := NewDynamicSampler(d, 5, MostRecent, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // appender drives the clock forward
		defer wg.Done()
		for i := 100; i < 1200; i++ {
			if _, err := d.Append(Edge{Src: int32(1 + i%15), Dst: int32(2 + i%14), Time: float64(i * 10)}); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	wg.Add(1)
	go func() { // late inserter trails the clock inside the window
		defer wg.Done()
		r := tensor.NewRNG(3)
		for {
			select {
			case <-stop:
				return
			default:
			}
			hi := d.MaxTime()
			tm := hi - r.Float64()*150
			if tm < 0 {
				continue
			}
			if _, err := d.InsertLate(Edge{Src: int32(1 + r.Intn(15)), Dst: int32(1 + r.Intn(15)), Time: tm}); err != nil && !errors.Is(err, ErrStale) {
				t.Errorf("InsertLate: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // deleter removes arbitrary live ids
		defer wg.Done()
		r := tensor.NewRNG(4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			d.DeleteEdge(int32(1 + r.Intn(1200)))
		}
	}()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		ts := []float64{300, 700, 999}
		b := s.Sample([]int32{1, 7, 15}, ts)
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				p := i*5 + j
				if b.Valid[p] && b.Times[p] >= ts[i] {
					t.Fatal("temporal constraint violated under concurrent mutations")
				}
			}
		}
	}
	wg.Wait()
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

func TestDynamicAppendsSequence(t *testing.T) {
	// The append sequence is the cache layer's only reliable signal that
	// adjacency changed via the chronological path: an append at exactly
	// the stream clock leaves MaxTime unchanged (and never bumps the
	// mutation epoch), so both must be distinguishable through Appends.
	d := NewDynamic(4)
	d.SetLateness(100)
	if d.Appends() != 0 {
		t.Fatalf("fresh graph Appends = %d", d.Appends())
	}
	if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: 10}); err != nil {
		t.Fatal(err)
	}
	// Equal-time append: MaxTime stays put, the sequence must not.
	if _, err := d.Append(Edge{Src: 2, Dst: 3, Time: 10}); err != nil {
		t.Fatal(err)
	}
	if d.MaxTime() != 10 {
		t.Fatalf("MaxTime = %v, want 10", d.MaxTime())
	}
	if d.Appends() != 2 {
		t.Fatalf("Appends = %d, want 2", d.Appends())
	}
	muts := d.Mutations()
	// A genuinely late insert is a history rewrite, not an append.
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 3, Time: 5}); err != nil {
		t.Fatal(err)
	}
	if d.Appends() != 2 {
		t.Fatalf("late insert bumped Appends to %d", d.Appends())
	}
	if d.Mutations() == muts {
		t.Fatal("late insert did not bump Mutations")
	}
	// InsertLate at/past the clock degrades to an append and counts.
	if _, err := d.InsertLate(Edge{Src: 1, Dst: 4, Time: 10}); err != nil {
		t.Fatal(err)
	}
	if d.Appends() != 3 {
		t.Fatalf("degraded-to-append insert left Appends at %d, want 3", d.Appends())
	}
}

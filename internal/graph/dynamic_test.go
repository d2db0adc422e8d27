package graph

import (
	"sync"
	"testing"

	"tgopt/internal/tensor"
)

func TestDynamicAppendAndAccessors(t *testing.T) {
	d := NewDynamic(4)
	if d.NumNodes() != 4 || d.NumEdges() != 0 || d.MaxTime() != 0 {
		t.Fatal("fresh dynamic graph accessors wrong")
	}
	idx, err := d.Append(Edge{Src: 1, Dst: 2, Time: 10})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("auto idx = %d", idx)
	}
	if _, err := d.Append(Edge{Src: 2, Dst: 3, Time: 15}); err != nil {
		t.Fatal(err)
	}
	if d.NumEdges() != 2 || d.MaxTime() != 15 {
		t.Fatalf("NumEdges=%d MaxTime=%v", d.NumEdges(), d.MaxTime())
	}
}

func TestDynamicAppendValidation(t *testing.T) {
	d := NewDynamic(3)
	if _, err := d.Append(Edge{Src: 0, Dst: 1, Time: 1}); err == nil {
		t.Fatal("padding-node edge accepted")
	}
	if _, err := d.Append(Edge{Src: 1, Dst: 4, Time: 1}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Append(Edge{Src: 1, Dst: 2, Time: 5}); err == nil {
		t.Fatal("time-regressing edge accepted")
	}
	// Equal timestamps are allowed (simultaneous events exist in CTDGs).
	if _, err := d.Append(Edge{Src: 2, Dst: 3, Time: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicWindowMatchesGraph(t *testing.T) {
	// Build the same edge stream both ways; temporal degrees must agree
	// everywhere.
	r := tensor.NewRNG(1)
	n := 20
	var edges []Edge
	clock := 0.0
	for i := 0; i < 300; i++ {
		clock += r.Float64() * 10
		src := int32(1 + r.Intn(n))
		dst := int32(1 + r.Intn(n))
		if src == dst {
			continue
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Time: clock})
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(n)
	for _, e := range edges {
		if _, err := d.Append(Edge{Src: e.Src, Dst: e.Dst, Time: e.Time, Idx: e.Idx}); err != nil {
			t.Fatal(err)
		}
	}
	for v := int32(1); v <= int32(n); v++ {
		for _, q := range []float64{0, 50, clock / 2, clock + 1} {
			if g.TemporalDegree(v, q) != d.TemporalDegree(v, q) {
				t.Fatalf("degree mismatch at (%d, %v)", v, q)
			}
		}
	}
}

func TestDynamicSamplerMatchesGraphSampler(t *testing.T) {
	r := tensor.NewRNG(2)
	n := 15
	var edges []Edge
	clock := 0.0
	for i := 0; i < 200; i++ {
		clock += 1 + r.Float64()*5
		src := int32(1 + r.Intn(n))
		dst := int32(1 + r.Intn(n))
		if src == dst {
			dst = int32(1 + (int(src) % n))
			if src == dst {
				continue
			}
		}
		edges = append(edges, Edge{Src: src, Dst: dst, Time: clock})
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamic(n)
	for i, e := range edges {
		e.Idx = int32(i + 1)
		if _, err := d.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sg := NewSampler(g, 6, MostRecent, 0)
	sd := NewDynamicSampler(d, 6, MostRecent, 0)
	targets := []int32{1, 5, 9, 14}
	ts := []float64{clock / 3, clock / 2, clock, clock + 10}
	bg := sg.Sample(targets, ts)
	bd := sd.Sample(targets, ts)
	for i := range bg.Nghs {
		if bg.Nghs[i] != bd.Nghs[i] || bg.Times[i] != bd.Times[i] ||
			bg.Valid[i] != bd.Valid[i] || bg.EIdxs[i] != bd.EIdxs[i] {
			t.Fatalf("slot %d: graph (%d,%v,%v) vs dynamic (%d,%v,%v)",
				i, bg.Nghs[i], bg.Times[i], bg.Valid[i], bd.Nghs[i], bd.Times[i], bd.Valid[i])
		}
	}
	if sd.Graph() != nil {
		t.Fatal("dynamic sampler should have nil Graph()")
	}
	if sg.Graph() != g {
		t.Fatal("graph sampler lost its graph")
	}
}

func TestDynamicAppendsDoNotChangePastWindows(t *testing.T) {
	// The §3.2 property: N(v, t) is immutable once t is in the past.
	d := NewDynamic(3)
	d.Append(Edge{Src: 1, Dst: 2, Time: 10})
	d.Append(Edge{Src: 1, Dst: 3, Time: 20})
	s := NewDynamicSampler(d, 4, MostRecent, 0)
	before := s.Sample([]int32{1}, []float64{25})
	d.Append(Edge{Src: 1, Dst: 2, Time: 30})
	d.Append(Edge{Src: 1, Dst: 3, Time: 40})
	after := s.Sample([]int32{1}, []float64{25})
	for i := range before.Nghs {
		if before.Nghs[i] != after.Nghs[i] || before.Times[i] != after.Times[i] || before.Valid[i] != after.Valid[i] {
			t.Fatalf("slot %d changed after appends", i)
		}
	}
	// And the new edges are visible at later times.
	now := s.Sample([]int32{1}, []float64{45})
	validCount := 0
	for _, v := range now.Valid {
		if v {
			validCount++
		}
	}
	if validCount != 4 {
		t.Fatalf("new interactions not visible: %d valid slots", validCount)
	}
}

func TestDynamicConcurrentAppendAndSample(t *testing.T) {
	d := NewDynamic(10)
	for i := 0; i < 50; i++ {
		d.Append(Edge{Src: int32(1 + i%9), Dst: int32(2 + i%8), Time: float64(i)})
	}
	s := NewDynamicSampler(d, 5, MostRecent, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 50; i < 2000; i++ {
			if _, err := d.Append(Edge{Src: int32(1 + i%9), Dst: int32(2 + i%8), Time: float64(i)}); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		b := s.Sample([]int32{1, 5, 9}, []float64{40, 45, 49})
		// Past windows are fixed: slot values must always satisfy t_j < t.
		for i := 0; i < 3; i++ {
			for j := 0; j < 5; j++ {
				p := i*5 + j
				if b.Valid[p] && b.Times[p] >= []float64{40, 45, 49}[i] {
					t.Fatal("temporal constraint violated under concurrency")
				}
			}
		}
	}
	wg.Wait()
	if d.NumEdges() != 2000 {
		t.Fatalf("lost appends: %d", d.NumEdges())
	}
}

// TemporalDegree returns |N(v, t)|.
func (d *Dynamic) TemporalDegree(v int32, t float64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	nghs, _, _ := d.windowLocked(v, t)
	return len(nghs)
}

// Graph returns the underlying immutable graph, or nil when the sampler
// was built over a Dynamic.
func (s *Sampler) Graph() *Graph { return s.g }

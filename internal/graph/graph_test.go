package graph

import (
	"testing"
	"testing/quick"
	"tgopt/internal/parallel"

	"tgopt/internal/tensor"
)

// smallGraph builds the running example: node 1 interacts with 2,3,4,5
// at times 10,20,30,40; node 2 also interacts with 3 at time 25.
func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(5, []Edge{
		{Src: 1, Dst: 2, Time: 10},
		{Src: 1, Dst: 3, Time: 20},
		{Src: 2, Dst: 3, Time: 25},
		{Src: 1, Dst: 4, Time: 30},
		{Src: 1, Dst: 5, Time: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGraphValidatesEndpoints(t *testing.T) {
	if _, err := NewGraph(3, []Edge{{Src: 1, Dst: 4, Time: 1}}); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if _, err := NewGraph(3, []Edge{{Src: 0, Dst: 1, Time: 1}}); err == nil {
		t.Fatal("node id 0 accepted (reserved for padding)")
	}
}

func TestGraphBasicAccessors(t *testing.T) {
	g := smallGraph(t)
	if g.NumNodes() != 5 || g.NumEdges() != 5 {
		t.Fatalf("NumNodes=%d NumEdges=%d", g.NumNodes(), g.NumEdges())
	}
	if g.MaxTime() != 40 {
		t.Fatalf("MaxTime=%v", g.MaxTime())
	}
	if g.Degree(1) != 4 || g.Degree(3) != 2 || g.Degree(5) != 1 {
		t.Fatalf("degrees: %d %d %d", g.Degree(1), g.Degree(3), g.Degree(5))
	}
}

func TestEdgesSortedChronologically(t *testing.T) {
	g, err := NewGraph(3, []Edge{
		{Src: 1, Dst: 2, Time: 30},
		{Src: 2, Dst: 3, Time: 10},
		{Src: 1, Dst: 3, Time: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, e := range g.Edges() {
		if e.Time < prev {
			t.Fatal("edges not chronologically sorted")
		}
		prev = e.Time
	}
}

func TestEdgeIdxAutoAssigned(t *testing.T) {
	g, err := NewGraph(2, []Edge{{Src: 1, Dst: 2, Time: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges()[0].Idx != 1 {
		t.Fatalf("auto edge id = %d, want 1", g.Edges()[0].Idx)
	}
}

func TestTemporalDegreeRespectsStrictInequality(t *testing.T) {
	g := smallGraph(t)
	// Node 1 has edges at t=10,20,30,40.
	if d := g.TemporalDegree(1, 30); d != 2 {
		t.Fatalf("TemporalDegree(1,30) = %d, want 2 (strict <)", d)
	}
	if d := g.TemporalDegree(1, 30.0001); d != 3 {
		t.Fatalf("TemporalDegree(1,30.0001) = %d, want 3", d)
	}
	if d := g.TemporalDegree(1, 5); d != 0 {
		t.Fatalf("TemporalDegree(1,5) = %d, want 0", d)
	}
	if d := g.TemporalDegree(1, 1e9); d != 4 {
		t.Fatalf("TemporalDegree(1,inf) = %d, want 4", d)
	}
}

func TestSamplerMostRecentTakesLatest(t *testing.T) {
	g := smallGraph(t)
	s := NewSampler(g, 2, MostRecent, 0)
	b := s.Sample([]int32{1}, []float64{35})
	// N(1, 35) = {2@10, 3@20, 4@30}; most recent 2 are 3@20, 4@30.
	if !b.Valid[0] || !b.Valid[1] {
		t.Fatalf("expected two valid slots: %v", b.Valid)
	}
	if b.Nghs[0] != 3 || b.Nghs[1] != 4 {
		t.Fatalf("neighbors = %v, want [3 4]", b.Nghs)
	}
	if b.Times[0] != 20 || b.Times[1] != 30 {
		t.Fatalf("times = %v, want [20 30]", b.Times)
	}
}

func TestSamplerPadsWhenFewNeighbors(t *testing.T) {
	g := smallGraph(t)
	s := NewSampler(g, 4, MostRecent, 0)
	b := s.Sample([]int32{5}, []float64{50})
	// Node 5 has one interaction (with 1 at t=40).
	if !b.Valid[0] || b.Nghs[0] != 1 {
		t.Fatalf("first slot = (%d, valid=%v)", b.Nghs[0], b.Valid[0])
	}
	for j := 1; j < 4; j++ {
		if b.Valid[j] || b.Nghs[j] != 0 || b.EIdxs[j] != 0 {
			t.Fatalf("slot %d not padded: ngh=%d eidx=%d valid=%v", j, b.Nghs[j], b.EIdxs[j], b.Valid[j])
		}
		if b.Times[j] != 50 {
			t.Fatalf("padding time = %v, want target time 50 (zero delta)", b.Times[j])
		}
	}
}

func TestSamplerPaddingNodeAndNoHistory(t *testing.T) {
	g := smallGraph(t)
	s := NewSampler(g, 3, MostRecent, 0)
	b := s.Sample([]int32{0, 2}, []float64{100, 5})
	for j := 0; j < 6; j++ {
		if b.Valid[j] {
			t.Fatalf("slot %d valid for padding node / empty history", j)
		}
	}
	if b.NumTargets() != 2 {
		t.Fatalf("NumTargets = %d", b.NumTargets())
	}
}

func TestSamplerDeterministicForSameTarget(t *testing.T) {
	// The memoization optimization relies on this (§3.2): sampling the
	// same ⟨i, t⟩ twice yields exactly the same temporal subgraph, even
	// after new interactions are appended — checked here by rebuilding
	// the graph with an extra later edge.
	g1 := smallGraph(t)
	edges := append([]Edge{}, g1.Edges()...)
	for i := range edges {
		edges[i].Idx = 0 // let them be reassigned
	}
	edges = append(edges, Edge{Src: 1, Dst: 2, Time: 100})
	g2, err := NewGraph(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	s1 := NewSampler(g1, 3, MostRecent, 0)
	s2 := NewSampler(g2, 3, MostRecent, 0)
	b1 := s1.Sample([]int32{1, 2, 3}, []float64{35, 27, 22})
	b2 := s2.Sample([]int32{1, 2, 3}, []float64{35, 27, 22})
	for i := range b1.Nghs {
		if b1.Nghs[i] != b2.Nghs[i] || b1.Times[i] != b2.Times[i] || b1.Valid[i] != b2.Valid[i] || b1.EIdxs[i] != b2.EIdxs[i] {
			t.Fatalf("slot %d differs after graph evolution: (%d,%v,%v) vs (%d,%v,%v)",
				i, b1.Nghs[i], b1.Times[i], b1.Valid[i], b2.Nghs[i], b2.Times[i], b2.Valid[i])
		}
	}
}

func TestSamplerTemporalConstraintProperty(t *testing.T) {
	// Property: every valid sampled slot has edge time strictly less
	// than the target time, for random graphs and random targets.
	prop := func(seed uint32) bool {
		r := tensor.NewRNG(uint64(seed))
		n := 5 + r.Intn(30)
		m := 20 + r.Intn(200)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{
				Src:  int32(1 + r.Intn(n)),
				Dst:  int32(1 + r.Intn(n)),
				Time: r.Float64() * 1000,
			}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			return false
		}
		for _, strat := range []Strategy{MostRecent, Uniform} {
			s := NewSampler(g, 1+r.Intn(10), strat, uint64(seed))
			targets := make([]int32, 16)
			ts := make([]float64, 16)
			for i := range targets {
				targets[i] = int32(1 + r.Intn(n))
				ts[i] = r.Float64() * 1200
			}
			b := s.Sample(targets, ts)
			for i := 0; i < len(targets); i++ {
				for j := 0; j < b.K; j++ {
					p := i*b.K + j
					if b.Valid[p] && b.Times[p] >= ts[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerMostRecentOrderedByTime(t *testing.T) {
	prop := func(seed uint32) bool {
		r := tensor.NewRNG(uint64(seed))
		n := 10
		m := 300
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{Src: int32(1 + r.Intn(n)), Dst: int32(1 + r.Intn(n)), Time: float64(r.Intn(500))}
		}
		g, err := NewGraph(n, edges)
		if err != nil {
			return false
		}
		s := NewSampler(g, 8, MostRecent, 0)
		b := s.Sample([]int32{1, 2, 3}, []float64{400, 450, 500})
		for i := 0; i < 3; i++ {
			prev := -1.0
			for j := 0; j < 8; j++ {
				p := i*8 + j
				if !b.Valid[p] {
					continue
				}
				if b.Times[p] < prev {
					return false
				}
				prev = b.Times[p]
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformSamplerReproducible(t *testing.T) {
	g := smallGraph(t)
	s := NewSampler(g, 2, Uniform, 7)
	a := s.Sample([]int32{1, 1}, []float64{45, 45})
	b := s.Sample([]int32{1, 1}, []float64{45, 45})
	for i := range a.Nghs {
		if a.Nghs[i] != b.Nghs[i] {
			t.Fatal("uniform sampler not reproducible for same seed/target")
		}
	}
}

func TestUniformSamplerTakesAllWhenUnderBudget(t *testing.T) {
	g := smallGraph(t)
	s := NewSampler(g, 10, Uniform, 1)
	b := s.Sample([]int32{1}, []float64{1e9})
	valid := 0
	for _, v := range b.Valid[:10] {
		if v {
			valid++
		}
	}
	if valid != 4 {
		t.Fatalf("uniform under-budget valid slots = %d, want 4", valid)
	}
}

func TestSamplerKPanics(t *testing.T) {
	g := smallGraph(t)
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 sampler did not panic")
		}
	}()
	NewSampler(g, 0, MostRecent, 0)
}

func TestStrategyString(t *testing.T) {
	if MostRecent.String() != "most-recent" || Uniform.String() != "uniform" || Strategy(99).String() != "unknown" {
		t.Fatal("Strategy.String() wrong")
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.MaxTime() != 0 {
		t.Fatal("empty graph accessors wrong")
	}
}

func TestLargeBatchParallelSampling(t *testing.T) {
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	r := tensor.NewRNG(99)
	n, m := 200, 5000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{Src: int32(1 + r.Intn(n)), Dst: int32(1 + r.Intn(n)), Time: r.Float64() * 1e6}
	}
	g, err := NewGraph(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(g, 20, MostRecent, 0)
	nt := 2000 // exceeds the parallel threshold
	nodes := make([]int32, nt)
	ts := make([]float64, nt)
	for i := range nodes {
		nodes[i] = int32(1 + r.Intn(n))
		ts[i] = r.Float64() * 1e6
	}
	b := s.Sample(nodes, ts)
	// Spot-check against a serial one-target sample.
	for _, i := range []int{0, 777, 1999} {
		single := s.Sample(nodes[i:i+1], ts[i:i+1])
		for j := 0; j < 20; j++ {
			if b.Nghs[i*20+j] != single.Nghs[j] || b.Valid[i*20+j] != single.Valid[j] {
				t.Fatalf("parallel batch slot (%d,%d) differs from serial", i, j)
			}
		}
	}
}

// NumTargets returns the number of target pairs in the batch.
func (b *Batch) NumTargets() int {
	if b.K == 0 {
		return 0
	}
	return len(b.Nghs) / b.K
}

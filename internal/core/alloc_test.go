package core

import (
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// TestEngineEmbedSteadyStateAllocs pins the headline memory-discipline
// claim (DESIGN.md §9): after warmup, a repeated EmbedWith call of the
// same shape performs zero heap allocations end to end — through
// dedup, cache key computation and lookup, sampling, time encoding,
// attention and score assembly. Verified both for the instrumented
// baseline (no optimizations) and the full TGOpt configuration.
//
// Warmup runs three times: the first call populates the cache (the
// all-miss slot sequence), the second settles the all-hit sequence,
// and the third confirms the slot capacities converged. AllocsPerRun
// counts allocations on every goroutine, so the test forces serial
// execution.
func TestEngineEmbedSteadyStateAllocs(t *testing.T) {
	old := parallel.Degree()
	parallel.SetDegree(1)
	defer parallel.SetDegree(old)

	ds, m, s := engineTestSetup(t, 500)
	nodes := []int32{1, 2, 3, 1, 26, 30, 7, 12}
	ts := []float64{4e4, 4e4, 3e4, 4e4, 4.5e4, 2e4, 3.5e4, 4.2e4}

	// A 3-layer model exercises the deep-memo dependency recording
	// (the window indexes, DESIGN.md §11), over the live graph
	// below since a static sampler builds no index: recording happens
	// only on the miss/store path, so the all-hit steady state must stay
	// allocation-free there too.
	cfg3 := engineTestConfig()
	cfg3.Layers = 3
	m3, err := tgat.NewModel(cfg3, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}

	// The same model over a live graph: after warmup every target is
	// answered by the top-layer memo, and the all-hit pass — stamp read,
	// striped lookups, row copies — must allocate nothing either.
	dyn := graph.NewDynamic(ds.Graph.NumNodes())
	for _, e := range ds.Graph.Edges() {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	live := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)

	cases := []struct {
		name    string
		model   *tgat.Model
		sampler *graph.Sampler
		opt     Options
	}{
		{"baseline", m, s, Options{}},
		{"optall", m, s, OptAll()},
		{"optall-3layer-indexed", m3, live, OptAll()},
		{"optall-live-memo-hit", m, live, OptAll()},
	}
	for _, tc := range cases {
		m := tc.model
		eng := NewEngine(m, tc.sampler, tc.opt)
		ar := tensor.NewArena()
		nb := len(nodes) / 2
		run := func() {
			// The full stream-worker hot path: embed src‖dst targets,
			// split the rows, score the pairs.
			ar.Reset()
			h := eng.EmbedWith(ar, nodes, ts)
			d := h.Dim(1)
			hSrc := ar.Wrap(h.Data()[:nb*d], nb, d)
			hDst := ar.Wrap(h.Data()[nb*d:], nb, d)
			m.ScoreWith(ar, hSrc, hDst)
		}
		for i := 0; i < 3; i++ {
			run()
		}
		memo := eng.TopMemoStats()
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: EmbedWith allocated %v times/op in steady state, want 0", tc.name, allocs)
		}
		if tc.sampler == live {
			if st := eng.TopMemoStats(); st.Lookups == memo.Lookups || st.Hits-memo.Hits != st.Lookups-memo.Lookups {
				t.Errorf("%s: measured runs were not all memo hits: %+v → %+v", tc.name, memo, st)
			}
		}
	}
}

// TestEngineEmbedCompatCopies checks that the allocating Embed wrapper
// returns a tensor that survives arena reuse: the copy must not alias
// pooled arena storage.
func TestEngineEmbedCompatCopies(t *testing.T) {
	_, m, s := engineTestSetup(t, 300)
	eng := NewEngine(m, s, OptAll())
	nodes := []int32{1, 2, 26}
	ts := []float64{4e4, 3e4, 4.5e4}
	h1 := eng.Embed(nodes, ts)
	want := h1.Clone()
	// Churn the pool: a second Embed reuses the pooled arena h1 came from.
	eng.Embed([]int32{3, 7, 12}, []float64{2e4, 3.5e4, 4.2e4})
	if d := h1.MaxAbsDiff(want); d != 0 {
		t.Fatalf("Embed result mutated by later arena reuse (max diff %g)", d)
	}
}

package core

import (
	"testing"
	"tgopt/internal/tensor"

	"tgopt/internal/dataset"
	"tgopt/internal/device"
	"tgopt/internal/graph"
	"tgopt/internal/stats"
	"tgopt/internal/tgat"
)

func engineTestConfig() tgat.Config {
	return tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 7}
}

func engineTestSetup(t *testing.T, edges int) (*dataset.Dataset, *tgat.Model, *graph.Sampler) {
	t.Helper()
	spec := dataset.Spec{
		Name: "eng", Bipartite: true, Users: 25, Items: 12, Edges: edges,
		MaxTime: 5e4, Repeat: 0.6, ZipfExponent: 1.1, ParetoAlpha: 1.2, Seed: 21,
	}
	ds, err := dataset.Generate(spec, dataset.Options{FeatureDim: 16, RandomNodeFeatures: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := tgat.NewModel(engineTestConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	return ds, m, s
}

func TestEngineCachePopulatesAndHits(t *testing.T) {
	ds, m, s := engineTestSetup(t, 500)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	if eng.CacheLen() == 0 {
		t.Fatal("cache empty after a full pass")
	}
	if eng.CacheBytes() <= 0 {
		t.Fatal("cache bytes not positive")
	}
	st := eng.CacheFor(1).Stats()
	if st.Hits == 0 {
		t.Fatal("no cache hits recorded on a repetitive dataset")
	}
	// The table counts every key the lookup op was handed; the cache
	// counts every one it looked up (all of them: the times are integral).
	ops := eng.Ops()
	if ops.Items(stats.OpCacheLookup) != st.Lookups {
		t.Fatalf("CacheLookup items %d, cache lookups %d", ops.Items(stats.OpCacheLookup), st.Lookups)
	}
	if ops.Duration(stats.OpCacheLookup) <= 0 || ops.Duration(stats.OpCacheStore) <= 0 {
		t.Fatal("cache op timings missing")
	}
	// Only layer 1 of a 2-layer model is cached (§4.2.2).
	if eng.CacheFor(2) != nil {
		t.Fatal("top layer has a cache")
	}
	if eng.CacheFor(1) == nil {
		t.Fatal("layer 1 cache missing")
	}
	if eng.CacheFor(0) != nil || eng.CacheFor(99) != nil {
		t.Fatal("out-of-range CacheFor not nil")
	}
}

func TestEngineHitRateGrowsOverTime(t *testing.T) {
	ds, m, s := engineTestSetup(t, 1500)
	eng := NewEngine(m, s, OptAll())
	// One record per batch from the layer cache's counters.
	hr := stats.NewHitRate(10)
	var seen CacheStats
	tgat.StreamInference(ds.Graph, m, 100, func(nodes []int32, ts []float64) *tensor.Tensor {
		h := eng.Embed(nodes, ts)
		now := eng.CacheFor(1).Stats()
		hr.Record(int(now.Hits-seen.Hits), int(now.Lookups-seen.Lookups))
		seen = now
		return h
	})
	w := hr.Windowed()
	if len(w) < 4 {
		t.Fatalf("too few batches recorded: %d", len(w))
	}
	early := w[1]
	late := w[len(w)-1]
	if late <= early {
		t.Fatalf("hit rate did not grow: early=%v late=%v", early, late)
	}
}

func TestEngineBaselineModeMatchesModelEmbed(t *testing.T) {
	// Engine with zero options must reproduce the baseline exactly: this
	// is what the experiments use as the instrumented baseline.
	ds, m, s := engineTestSetup(t, 300)
	eng := NewEngine(m, s, Options{})
	nodes := []int32{1, 5, 9, 5}
	ts := []float64{2e4, 2e4, 3e4, 2e4}
	got := eng.Embed(nodes, ts)
	want := m.Embed(s, nodes, ts)
	if d := got.MaxAbsDiff(want); d != 0 {
		t.Fatalf("no-opt engine differs from baseline by %g", d)
	}
	_ = ds
}

func TestEngineValidation(t *testing.T) {
	ds, m, _ := engineTestSetup(t, 200)
	// Uniform sampler with cache must panic.
	us := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.Uniform, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("uniform sampler + cache accepted")
			}
		}()
		NewEngine(m, us, OptAll())
	}()
	// Sampler k mismatch must panic.
	ks := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors+3, graph.MostRecent, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("k mismatch accepted")
			}
		}()
		NewEngine(m, ks, Options{})
	}()
	// Mismatched input lengths panic.
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	eng := NewEngine(m, s, Options{})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("length mismatch accepted")
			}
		}()
		eng.Embed([]int32{1}, nil)
	}()
	// Uniform sampler WITHOUT cache is fine (dedup/precompute remain sound).
	NewEngine(m, us, Options{EnableDedup: true, EnableTimePrecompute: true})
}

func TestEngineOptionsDefaults(t *testing.T) {
	ds, m, s := engineTestSetup(t, 200)
	eng := NewEngine(m, s, Options{EnableCache: true, EnableTimePrecompute: true})
	if eng.Options().CacheLimit != 2_000_000 || eng.Options().TimeWindow != 10_000 {
		t.Fatalf("defaults not applied: %+v", eng.Options())
	}
	if eng.TimeTable() == nil || eng.TimeTable().Window() != 10_000 {
		t.Fatal("time table not built with defaults")
	}
	if eng.Model() != m {
		t.Fatal("Model accessor wrong")
	}
	_ = ds
}

func TestEngineCacheLimitRespected(t *testing.T) {
	ds, m, s := engineTestSetup(t, 800)
	opt := OptAll()
	opt.CacheLimit = 32
	eng := NewEngine(m, s, opt)
	res := tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	if eng.CacheLen() > 32+4 {
		t.Fatalf("cache size %d exceeds limit 32", eng.CacheLen())
	}
	// Even with a tiny cache the results stay correct.
	baseline := tgat.StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	for i := range res.Scores {
		d := res.Scores[i] - baseline.Scores[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-5 {
			t.Fatalf("tiny-cache score %d differs by %g", i, d)
		}
	}
}

func TestEngineStageStats(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	hs := eng.StageStats()
	if len(hs) != len(Stages) {
		t.Fatalf("StageStats has %d stages, want %d", len(hs), len(Stages))
	}
	// Every stage of a fully-optimized run must have been exercised.
	for _, st := range Stages {
		h := hs[st]
		if h == nil {
			t.Fatalf("stage %q missing", st)
		}
		if h.Count() == 0 {
			t.Fatalf("stage %q recorded no observations", st)
		}
		if h.Sum() < 0 || h.Quantile(0.99) < h.Quantile(0.5) {
			t.Fatalf("stage %q histogram inconsistent", st)
		}
	}
	// A baseline engine (no dedup/cache) still times sampling, time
	// encoding, and attention, but never the cache stages.
	base := NewEngine(m, s, Options{})
	tgat.StreamInference(ds.Graph, m, 100, base.EmbedFunc())
	bs := base.StageStats()
	for _, st := range []string{StageSample, StageTimeEncode, StageAttention} {
		if bs[st].Count() == 0 {
			t.Fatalf("baseline stage %q recorded nothing", st)
		}
	}
	for _, st := range []string{StageDedup, StageCacheLookup, StageCacheStore} {
		if bs[st].Count() != 0 {
			t.Fatalf("baseline stage %q unexpectedly recorded %d", st, bs[st].Count())
		}
	}
}

// TestEngineTimeEncodeCounts: the layer pass encodes Φ(Δt) in its
// tiles, yet TimeEncode(Δt) and TimeEncode(0) keep one call per computed
// level each, TimeEncode(Δt) counting every neighbor slot (padded
// included) and TimeEncode(0) every target — the counts the engine
// recorded when it encoded a dense slab before the pass, which the
// device price and Table 3 read.
func TestEngineTimeEncodeCounts(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	for _, tc := range []struct {
		opt                                  Options
		zeroCalls, zeros, deltaCalls, deltas int64
	}{
		{Options{}, 12, 8400, 12, 42000},
		{Options{EnableTimePrecompute: true}, 12, 8400, 12, 42000},
		{OptAll(), 12, 2401, 12, 12005},
	} {
		eng := NewEngine(m, s, tc.opt)
		tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
		c := eng.Ops()
		got := [4]int64{c.Calls(stats.OpTimeEncZero), c.Items(stats.OpTimeEncZero), c.Calls(stats.OpTimeEncDelta), c.Items(stats.OpTimeEncDelta)}
		if want := [4]int64{tc.zeroCalls, tc.zeros, tc.deltaCalls, tc.deltas}; got != want {
			t.Errorf("%+v: TimeEncode(0) calls/items, TimeEncode(dt) calls/items = %v, want %v", tc.opt, got, want)
		}
	}
}

// TestEngineStageIsTheMergeOfItsOps pins the one record: every stage
// histogram StageStats reports is exactly the merge of its operations'
// histograms in the engine's table — same calls, wall time and buckets
// at every quantile — and every observed op with a stage is pooled.
func TestEngineStageIsTheMergeOfItsOps(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	for _, opt := range []Options{OptAll(), {}} {
		eng := NewEngine(m, s, opt)
		tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
		ops := eng.Ops()
		want := map[string]*stats.Histogram{}
		for _, st := range Stages {
			want[st] = stats.NewHistogram()
		}
		for op := range stats.NumOps {
			st := opStage[op]
			if st == "" {
				continue
			}
			want[st].Merge(ops.Hist(op))
		}
		got := eng.StageStats()
		if len(got) != len(Stages) {
			t.Fatalf("StageStats has %d stages, want %d", len(got), len(Stages))
		}
		var calls int64
		for _, st := range Stages {
			g, w := got[st], want[st]
			if g.Count() != w.Count() || g.Sum() != w.Sum() {
				t.Fatalf("%+v stage %s: %d calls / %v, its ops' merge %d / %v", opt, st, g.Count(), g.Sum(), w.Count(), w.Sum())
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				if g.Quantile(q) != w.Quantile(q) {
					t.Fatalf("%+v stage %s q=%v: %v, its ops' merge %v", opt, st, q, g.Quantile(q), w.Quantile(q))
				}
			}
			calls += g.Count()
		}
		// Every observation of a staged op lands in exactly one stage.
		var staged int64
		for op := range stats.NumOps {
			if opStage[op] != "" {
				staged += ops.Calls(op)
			}
		}
		if calls != staged || calls == 0 {
			t.Fatalf("%+v: stages pool %d calls, staged ops made %d", opt, calls, staged)
		}
		if ops.Calls(stats.OpFeatLookup) == 0 {
			t.Fatalf("%+v: the feature gathers were not recorded", opt)
		}
	}
}

// priceEngineRun streams edges through an engine with every
// optimisation, then prices what the engine counted with the cache
// kept at each placement. The engine knows no device: these checks
// hold its counts to what the device model needs of them.
func priceEngineRun(t *testing.T, edges int) (col *stats.Collector, host, dev device.Priced) {
	t.Helper()
	ds, m, s := engineTestSetup(t, edges)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	shape := device.Shape{
		NodeDim: m.Cfg.NodeDim, EdgeDim: m.Cfg.EdgeDim, TimeDim: m.Cfg.TimeDim,
		K: m.Cfg.NumNeighbors, TimeWindow: eng.Options().TimeWindow,
	}
	col, hits := eng.Ops(), eng.CacheFor(1).Stats().Hits
	host = device.Price(device.DefaultCostModel(), shape, device.CacheOnHost, col, hits)
	dev = device.Price(device.DefaultCostModel(), shape, device.CacheOnDevice, col, hits)
	return col, host, dev
}

func TestEngineDeviceSimAccountsTransfers(t *testing.T) {
	col, host, _ := priceEngineRun(t, 400)
	if host.Transfers[device.HtoD].Bytes == 0 {
		t.Fatal("host-resident cache produced no HtoD traffic")
	}
	if host.Transfers[device.DtoH].Bytes == 0 {
		t.Fatal("cache stores produced no DtoH traffic")
	}
	if host.Total <= 0 {
		t.Fatal("no simulated time priced")
	}
	if col.Total() <= 0 {
		t.Fatal("no wall time accumulated")
	}
}

func TestEngineCacheOnDeviceDtoDDominates(t *testing.T) {
	_, host, dev := priceEngineRun(t, 600)
	if host.Transfers[device.DtoD].Time >= host.Transfers[device.HtoD].Time {
		t.Fatalf("host-resident cache: DtoD (%v) should be below HtoD (%v)",
			host.Transfers[device.DtoD].Time, host.Transfers[device.HtoD].Time)
	}
	// Table 5's shape: storing on device makes DtoD the dominant mover.
	if dev.Transfers[device.DtoD].Time <= host.Transfers[device.DtoD].Time {
		t.Fatalf("device-resident cache did not raise DtoD time: %v vs %v",
			dev.Transfers[device.DtoD].Time, host.Transfers[device.DtoD].Time)
	}
	if dev.Transfers[device.DtoD].Calls <= host.Transfers[device.DtoD].Calls {
		t.Fatal("device-resident cache should issue many small DtoD copies")
	}
}

func TestEngineEdgeCases(t *testing.T) {
	ds, m, s := engineTestSetup(t, 200)
	eng := NewEngine(m, s, OptAll())
	// Empty batch.
	h := eng.Embed(nil, nil)
	if h.Dim(0) != 0 {
		t.Fatalf("empty batch produced %d rows", h.Dim(0))
	}
	// Batch size exceeding the stream length.
	res := tgat.StreamInference(ds.Graph, m, ds.Graph.NumEdges()*3, eng.EmbedFunc())
	if len(res.Scores) != ds.Graph.NumEdges() || res.Batches != 1 {
		t.Fatalf("oversized batch: %d scores in %d batches", len(res.Scores), res.Batches)
	}
}

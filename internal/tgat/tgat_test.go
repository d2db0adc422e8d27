package tgat

import (
	"math"
	"path/filepath"
	"testing"

	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
)

func testConfig() Config {
	return Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 7}
}

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	spec := dataset.Spec{
		Name: "t", Bipartite: true, Users: 30, Items: 15, Edges: 800,
		MaxTime: 1e5, Repeat: 0.5, ZipfExponent: 1.1, ParetoAlpha: 1.2, Seed: 3,
	}
	ds, err := dataset.Generate(spec, dataset.Options{FeatureDim: 16, RandomNodeFeatures: true})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testModel(t *testing.T, ds *dataset.Dataset) *Model {
	t.Helper()
	m, err := NewModel(testConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.Heads = 0 },
		func(c *Config) { c.NodeDim = 0 },
		func(c *Config) { c.TimeDim = 0 },
		func(c *Config) { c.NumNeighbors = 0 },
		func(c *Config) { c.Heads = 3 }, // 32 % 3 != 0
	}
	for i, mutate := range cases {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Fatal("DefaultConfig invalid")
	}
	if good.QDim() != 32 || good.KDim() != 48 {
		t.Fatalf("QDim/KDim = %d/%d", good.QDim(), good.KDim())
	}
}

func TestNewModelDimChecks(t *testing.T) {
	ds := testDataset(t)
	cfg := testConfig()
	cfg.NodeDim = 8 // mismatch with 16-wide features
	if _, err := NewModel(cfg, ds.NodeFeat, ds.EdgeFeat); err == nil {
		t.Fatal("node-dim mismatch accepted")
	}
	cfg = testConfig()
	cfg.EdgeDim = 8
	cfg.TimeDim = 24 // keep divisibility: 16+24=40 % 2 == 0
	if _, err := NewModel(cfg, ds.NodeFeat, ds.EdgeFeat); err == nil {
		t.Fatal("edge-dim mismatch accepted")
	}
}

func TestLayerForwardShape(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	r := tensor.NewRNG(1)
	n, k := 4, m.Cfg.NumNeighbors
	hTgt := tensor.Randn(r, n, 16)
	hNgh := tensor.Randn(r, n*k, 16)
	eFeat := tensor.Randn(r, n*k, 16)
	tEnc0 := m.Time.Encode(make([]float64, n))
	tEncD := m.Time.Encode(make([]float64, n*k))
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = true
	}
	out := m.LayerForward(1, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
	if out.Dim(0) != n || out.Dim(1) != 16 {
		t.Fatalf("LayerForward shape %v", out.Shape())
	}
	if out.HasNaN() {
		t.Fatal("LayerForward produced NaN")
	}
}

// TestLayerForwardMatchesComposedOps: Model.LayerForwardWith is the
// fused tile pass; it must return, bit for bit, the layer composed from
// the public ops over the whole-batch q and kv — at every layer, below
// and above the fan-out cut-off.
func TestLayerForwardMatchesComposedOps(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	defer parallel.SetDegree(parallel.SetDegree(2))
	r := tensor.NewRNG(5)
	k := m.Cfg.NumNeighbors
	for _, n := range []int{5, 300} {
		hTgt := tensor.Randn(r, n, 16)
		hNgh := tensor.Randn(r, n*k, 16)
		eFeat := tensor.Randn(r, n*k, 16)
		tEnc0 := m.Time.Encode(make([]float64, n))
		deltas := make([]float64, n*k)
		mask := make([]bool, n*k)
		for i := range deltas {
			deltas[i] = float64(r.Intn(20000))
			mask[i] = i >= k && r.Float64() > 0.3 // target 0 all padded
		}
		tEncD := m.Time.Encode(deltas)
		q := tensor.ConcatCols(hTgt, tEnc0)
		kv := tensor.ConcatCols(hNgh, eFeat, tEncD)
		for l := 1; l <= m.Cfg.Layers; l++ {
			got := m.LayerForwardWith(nil, l, hTgt, hNgh, eFeat, tEnc0, tEncD, mask)
			want := m.Merge[l-1].ForwardWith(nil, m.Attn[l-1].ForwardWith(nil, q, kv, k, mask), hTgt)
			if !sameBits(got, want) {
				t.Fatalf("layer %d n=%d: fused pass differs from the composed ops", l, n)
			}
		}
	}
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

func TestEmbedShapesAndDeterminism(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	nodes := []int32{1, 2, 3, 31, 32}
	ts := []float64{5e4, 5e4, 6e4, 7e4, 9e4}
	h1 := m.Embed(s, nodes, ts)
	if h1.Dim(0) != 5 || h1.Dim(1) != 16 {
		t.Fatalf("Embed shape %v", h1.Shape())
	}
	h2 := m.Embed(s, nodes, ts)
	if !h1.AllClose(h2, 0) {
		t.Fatal("Embed is not deterministic for the same targets")
	}
	if h1.HasNaN() {
		t.Fatal("Embed produced NaN")
	}
}

func TestEmbedDiffersAcrossTimes(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	// A node with history should embed differently at an early vs late
	// time (different temporal neighborhoods).
	var busy int32 = 1
	best, bestDeg := int32(1), 0
	for v := int32(1); v <= 30; v++ {
		if d := ds.Graph.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	busy = best
	early := m.Embed(s, []int32{busy}, []float64{1e3})
	late := m.Embed(s, []int32{busy}, []float64{9.9e4})
	if early.AllClose(late, 1e-9) {
		t.Fatal("embeddings identical across very different times (suspicious)")
	}
}

func TestEmbedLayerZeroIsFeatureLookup(t *testing.T) {
	ds := testDataset(t)
	cfg := testConfig()
	cfg.Layers = 1
	m, err := NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
	h := m.embed(s, 0, []int32{0, 3, 7}, []float64{1, 2, 3})
	for j := 0; j < 16; j++ {
		if h.At(0, j) != 0 {
			t.Fatal("padding node features not zero")
		}
		if h.At(1, j) != ds.NodeFeat.At(3, j) || h.At(2, j) != ds.NodeFeat.At(7, j) {
			t.Fatal("layer-0 lookup wrong")
		}
	}
}

func TestScoreShape(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	r := tensor.NewRNG(2)
	logits := m.Score(tensor.Randn(r, 6, 16), tensor.Randn(r, 6, 16))
	if logits.Dim(0) != 6 || logits.Dim(1) != 1 {
		t.Fatalf("Score shape %v", logits.Shape())
	}
}

func TestParamsStableCount(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	// time (2) + per layer: attn 8 + merge 4 = 12 ×2 layers + affinity 4.
	if got := len(m.Params()); got != 2+2*12+4 {
		t.Fatalf("param count = %d, want %d", got, 2+2*12+4)
	}
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	nodes := []int32{1, 2, 3}
	ts := []float64{5e4, 6e4, 7e4}
	want := m.Embed(s, nodes, ts)

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	// A fresh model with a different seed embeds differently...
	cfg := testConfig()
	cfg.Seed = 999
	m2, err := NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Embed(s, nodes, ts).AllClose(want, 1e-9) {
		t.Fatal("different-seed models embed identically (suspicious)")
	}
	// ...until the checkpoint is loaded.
	if err := m2.LoadParams(path); err != nil {
		t.Fatal(err)
	}
	got := m2.Embed(s, nodes, ts)
	if !got.AllClose(want, 0) {
		t.Fatalf("post-load embeddings differ: %g", got.MaxAbsDiff(want))
	}
}

func TestLoadParamsArchMismatch(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := m.SaveParams(path); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Layers = 1
	m2, err := NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadParams(path); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
	if err := m.LoadParams(path + ".missing"); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestStreamInferenceScoresEveryEdge(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	res := StreamInference(ds.Graph, m, 128, m.BaselineEmbedFunc(s))
	if len(res.Scores) != ds.Graph.NumEdges() {
		t.Fatalf("scores = %d, want %d", len(res.Scores), ds.Graph.NumEdges())
	}
	wantBatches := (ds.Graph.NumEdges() + 127) / 128
	if res.Batches != wantBatches {
		t.Fatalf("batches = %d, want %d", res.Batches, wantBatches)
	}
}

func TestStreamInferenceDeterministic(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	a := StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	b := StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	for i := range a.Scores {
		if a.Scores[i] != b.Scores[i] {
			t.Fatalf("score %d differs across runs", i)
		}
	}
}

func TestStreamInferenceConcurrentMatchesSerial(t *testing.T) {
	// Batch-level parallelism must not change a single score: embeddings
	// depend only on graph and weights, not on cache state or order.
	prevDeg := parallel.SetDegree(4)
	defer parallel.SetDegree(prevDeg)
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	serial := StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	for _, workers := range []int{1, 2, 4} {
		conc := StreamInferenceArenaScored(ds.Graph, m, 100, workers, arenaAdapter(m.BaselineEmbedFunc(s)), m)
		if len(conc.Scores) != len(serial.Scores) || conc.Batches != serial.Batches {
			t.Fatalf("workers=%d: shape mismatch", workers)
		}
		for i := range serial.Scores {
			if serial.Scores[i] != conc.Scores[i] {
				t.Fatalf("workers=%d: score %d differs", workers, i)
			}
		}
	}
}

func TestExplainMatchesEmbedAndRanksNeighbors(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	// Pick a busy node so attributions are non-trivial.
	best, bestDeg := int32(1), 0
	for v := int32(1); v <= int32(ds.Graph.NumNodes()); v++ {
		if d := ds.Graph.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	at := ds.Graph.MaxTime() + 1
	h, attrs := m.Explain(s, best, at)
	want := m.Embed(s, []int32{best}, []float64{at})
	if d := h.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("Explain embedding differs from Embed by %g", d)
	}
	if len(attrs) == 0 {
		t.Fatal("no attributions for a busy node")
	}
	var total float64
	for i, a := range attrs {
		if a.Weight < 0 || a.Weight > 1 {
			t.Fatalf("weight %v out of [0,1]", a.Weight)
		}
		if i > 0 && attrs[i-1].Weight < a.Weight {
			t.Fatal("attributions not sorted by weight")
		}
		if a.EdgeTime >= at {
			t.Fatal("attribution violates temporal constraint")
		}
		total += a.Weight
	}
	if total < 0.99 || total > 1.01 {
		t.Fatalf("head-averaged weights sum to %v, want ~1", total)
	}
}

func TestExplainNodeWithoutHistory(t *testing.T) {
	ds := testDataset(t)
	m := testModel(t, ds)
	s := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	h, attrs := m.Explain(s, 1, 0) // before any interaction
	if len(attrs) != 0 {
		t.Fatalf("history-less node has %d attributions", len(attrs))
	}
	want := m.Embed(s, []int32{1}, []float64{0})
	if d := h.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("Explain embedding differs by %g", d)
	}
}

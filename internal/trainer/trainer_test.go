package trainer

import (
	"testing"
	"tgopt/internal/autograd"
	"tgopt/internal/tensor"

	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/tgat"
)

func trainerSetup(t *testing.T, edges int) (*dataset.Dataset, *tgat.Model, *graph.Sampler) {
	t.Helper()
	spec := dataset.Spec{
		Name: "train", Bipartite: true, Users: 20, Items: 10, Edges: edges,
		MaxTime: 5e4, Repeat: 0.7, ZipfExponent: 1.1, ParetoAlpha: 1.2, Seed: 5,
	}
	ds, err := dataset.Generate(spec, dataset.Options{FeatureDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := tgat.Config{Layers: 1, Heads: 2, NodeDim: 8, EdgeDim: 8, TimeDim: 8, NumNeighbors: 5, Seed: 7}
	m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
	return ds, m, s
}

func TestTapeForwardMatchesInferenceForward(t *testing.T) {
	// The differentiable forward and the inference forward share
	// parameters and must agree exactly, otherwise trained weights would
	// not transfer.
	_, m, s := trainerSetup(t, 400)
	nodes := []int32{1, 5, 9, 21, 25}
	ts := []float64{1e4, 2e4, 3e4, 4e4, 4.5e4}
	tp := NewTape(m)
	got := Forward(m, s, tp, nodes, ts)
	want := m.Embed(s, nodes, ts)
	if d := got.T.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("tape forward differs from inference forward by %g", d)
	}
}

func TestTapeForwardMatchesTwoLayer(t *testing.T) {
	ds, _, _ := trainerSetup(t, 400)
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 8, EdgeDim: 8, TimeDim: 8, NumNeighbors: 4, Seed: 9}
	m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
	nodes := []int32{2, 3, 22}
	ts := []float64{3e4, 3e4, 4e4}
	got := Forward(m, s, NewTape(m), nodes, ts)
	want := m.Embed(s, nodes, ts)
	if d := got.T.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("2-layer tape forward differs by %g", d)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	ds, m, s := trainerSetup(t, 600)
	cfg := Config{Epochs: 4, BatchSize: 100, LR: 3e-3, TrainFrac: 0.7, Seed: 1}
	res, err := Train(m, ds.Graph, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLoss) != 4 {
		t.Fatalf("epoch losses = %v", res.EpochLoss)
	}
	first, last := res.EpochLoss[0], res.EpochLoss[3]
	if last >= first {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}
	if res.ValAP < 0.45 || res.ValAP > 1 {
		t.Fatalf("validation AP = %v out of sanity range", res.ValAP)
	}
	if res.ValAcc < 0 || res.ValAcc > 1 {
		t.Fatalf("validation accuracy = %v", res.ValAcc)
	}
}

func TestTrainLearnsBetterThanRandom(t *testing.T) {
	// On a highly repetitive bipartite graph, temporal link prediction is
	// learnable: the trained model must beat the 0.5 random baseline on
	// AP. Deterministic seeds make this stable.
	ds, m, s := trainerSetup(t, 1200)
	cfg := Config{Epochs: 15, BatchSize: 100, LR: 5e-3, TrainFrac: 0.75, Seed: 2}
	res, err := Train(m, ds.Graph, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAP <= 0.55 {
		t.Fatalf("trained AP = %v, want > 0.55", res.ValAP)
	}
}

func TestTrainConfigValidation(t *testing.T) {
	ds, m, s := trainerSetup(t, 300)
	bad := []Config{
		{Epochs: 0, BatchSize: 10, LR: 1e-3, TrainFrac: 0.7},
		{Epochs: 1, BatchSize: 0, LR: 1e-3, TrainFrac: 0.7},
		{Epochs: 1, BatchSize: 10, LR: 1e-3, TrainFrac: 0},
		{Epochs: 1, BatchSize: 10, LR: 1e-3, TrainFrac: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Train(m, ds.Graph, s, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// Sampler k mismatch.
	ks := graph.NewSampler(ds.Graph, m.Cfg.NumNeighbors+1, graph.MostRecent, 0)
	if _, err := Train(m, ds.Graph, ks, DefaultConfig()); err == nil {
		t.Fatal("sampler k mismatch accepted")
	}
}

func TestTrainLogfCalled(t *testing.T) {
	ds, m, s := trainerSetup(t, 300)
	lines := 0
	cfg := Config{Epochs: 1, BatchSize: 100, LR: 1e-3, TrainFrac: 0.7, Logf: func(string, ...any) { lines++ }}
	if _, err := Train(m, ds.Graph, s, cfg); err != nil {
		t.Fatal(err)
	}
	if lines < 2 { // one epoch line + one validation line
		t.Fatalf("Logf called %d times", lines)
	}
}

func TestTrainFullTrainFracSkipsValidation(t *testing.T) {
	ds, m, s := trainerSetup(t, 300)
	cfg := Config{Epochs: 1, BatchSize: 100, LR: 1e-3, TrainFrac: 1.0}
	res, err := Train(m, ds.Graph, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ValAP != 0 || res.ValAcc != 0 {
		t.Fatalf("validation metrics set without a split: %+v", res)
	}
}

func TestNegativeSamplerDrawsFromDestinations(t *testing.T) {
	ds, _, _ := trainerSetup(t, 300)
	ns := newNegativeSampler(ds.Graph, 1)
	seen := map[int32]bool{}
	for _, e := range ds.Graph.Edges() {
		seen[e.Dst] = true
	}
	for i := 0; i < 200; i++ {
		v := ns.sample()
		if !seen[v] {
			t.Fatalf("negative %d never appears as a destination", v)
		}
	}
}

func TestDedupTrainingMatchesPlainTraining(t *testing.T) {
	// §7: deduplication is sound during training — losses and gradients
	// must match the non-deduplicated forward within floating-point
	// tolerance, on a batch with heavy target duplication.
	ds, m, s := trainerSetup(t, 600)
	edges := ds.Graph.Edges()[:100]
	nb := len(edges)
	nodes := make([]int32, 2*nb)
	ts := make([]float64, 2*nb)
	for i, e := range edges {
		nodes[i], nodes[nb+i] = e.Src, e.Dst
		ts[i], ts[nb+i] = e.Time, e.Time
	}
	labels := make([]float32, 2*nb)
	for i := range labels {
		labels[i] = float32(i % 2)
	}

	run := func(dedup bool) (float64, []*tensor.Tensor) {
		tp := NewTape(m)
		tp.SetDedup(dedup)
		h := Forward(m, s, tp, nodes, ts)
		logits := autograd.SliceRows(h, 0, 2*nb)
		// Reduce to per-target scalar logits through the affinity head
		// against themselves, so the tape reaches every parameter.
		out := tp.Score(m, logits, logits)
		loss := autograd.BCEWithLogits(out, labels)
		loss.Backward()
		return float64(loss.T.Data()[0]), tp.Grads()
	}

	lossPlain, gradsPlain := run(false)
	lossDedup, gradsDedup := run(true)
	if d := lossPlain - lossDedup; d > 1e-6 || d < -1e-6 {
		t.Fatalf("dedup changed the loss: %v vs %v", lossPlain, lossDedup)
	}
	for i := range gradsPlain {
		if gradsPlain[i] == nil || gradsDedup[i] == nil {
			t.Fatalf("missing gradient %d", i)
		}
		if diff := gradsPlain[i].MaxAbsDiff(gradsDedup[i]); diff > 1e-4 {
			t.Fatalf("gradient %d differs by %g under dedup", i, diff)
		}
	}
}

func TestTrainWithDedupConverges(t *testing.T) {
	ds, m, s := trainerSetup(t, 600)
	cfg := Config{Epochs: 3, BatchSize: 100, LR: 3e-3, TrainFrac: 0.7, Seed: 1, Dedup: true}
	res, err := Train(m, ds.Graph, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochLoss[2] >= res.EpochLoss[0] {
		t.Fatalf("dedup training loss did not fall: %v", res.EpochLoss)
	}
}

func TestTrainWithDropoutConverges(t *testing.T) {
	ds, m, s := trainerSetup(t, 600)
	cfg := Config{Epochs: 3, BatchSize: 100, LR: 3e-3, TrainFrac: 0.7, Seed: 1, Dropout: 0.1}
	res, err := Train(m, ds.Graph, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochLoss[2] >= res.EpochLoss[0] {
		t.Fatalf("dropout training loss did not fall: %v", res.EpochLoss)
	}
	// Inference after dropout training must be deterministic (no dropout
	// at inference time).
	a := m.Embed(s, []int32{1, 2}, []float64{4e4, 4e4})
	b := m.Embed(s, []int32{1, 2}, []float64{4e4, 4e4})
	if !a.AllClose(b, 0) {
		t.Fatal("inference nondeterministic after dropout training")
	}
}

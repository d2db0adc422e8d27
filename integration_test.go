package tgopt_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"tgopt"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/npy"
	"tgopt/internal/serve"
	"tgopt/internal/tgat"
)

// TestFullLifecycle drives the whole system the way a deployment would:
// generate a dataset, export it in the artifact's CSV+npy layout,
// reload it from disk, train for link prediction, checkpoint the model,
// serve it over HTTP with streaming ingestion, and verify the served
// scores against direct model evaluation.
func TestFullLifecycle(t *testing.T) {
	dir := t.TempDir()

	// 1. Generate and export.
	spec, err := tgopt.DatasetByName("jodie-wiki")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scale(0.003)
	ds, err := tgopt.Generate(spec, tgopt.DatasetOptions{FeatureDim: 16})
	if err != nil {
		t.Fatal(err)
	}
	csvPath := filepath.Join(dir, "ml_wiki.csv")
	if err := dataset.SaveCSV(csvPath, ds.Graph); err != nil {
		t.Fatal(err)
	}
	if err := npy.WriteFile(filepath.Join(dir, "ml_wiki.npy"), ds.EdgeFeat); err != nil {
		t.Fatal(err)
	}
	if err := npy.WriteFile(filepath.Join(dir, "ml_wiki_node.npy"), ds.NodeFeat); err != nil {
		t.Fatal(err)
	}

	// 2. Reload from disk — the artifact's own-data path.
	g, err := tgopt.LoadCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != ds.Graph.NumEdges() {
		t.Fatalf("reloaded %d edges, generated %d", g.NumEdges(), ds.Graph.NumEdges())
	}
	edgeFeat, err := tgopt.ReadNpy(filepath.Join(dir, "ml_wiki.npy"))
	if err != nil {
		t.Fatal(err)
	}
	nodeFeat, err := tgopt.ReadNpy(filepath.Join(dir, "ml_wiki_node.npy"))
	if err != nil {
		t.Fatal(err)
	}

	// 3. Train briefly and checkpoint.
	cfg := tgopt.ModelConfig{Layers: 1, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 1}
	model, err := tgopt.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	sampler := tgopt.NewSampler(g, 5, tgopt.MostRecent, 0)
	res, err := tgopt.Train(model, g, sampler, tgopt.TrainConfig{
		Epochs: 2, BatchSize: 100, LR: 3e-3, TrainFrac: 0.8, Seed: 1, Dropout: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLoss) != 2 {
		t.Fatalf("training losses: %v", res.EpochLoss)
	}
	ckpt := filepath.Join(dir, "model.bin")
	if err := model.SaveParams(ckpt); err != nil {
		t.Fatal(err)
	}

	// 4. Serve: fresh process state — reload weights, pre-ingest the
	// stream, expose HTTP.
	served, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	if err := served.LoadParams(ckpt); err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(g.NumNodes())
	for _, e := range g.Edges() {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := serve.NewFromConfig(served, dyn, serve.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// 5. Score a pair over HTTP and against the model directly.
	now := g.MaxTime() + 1
	reqBody, _ := json.Marshal(map[string]any{
		"pairs": []map[string]any{{"src": 1, "dst": 2, "time": now}},
	})
	resp, err := http.Post(hs.URL+"/v1/score", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("score status %d", resp.StatusCode)
	}
	var sr struct {
		Logits []float64 `json:"logits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}

	dynSampler := graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0)
	h := served.Embed(dynSampler, []int32{1, 2}, []float64{now, now})
	d := cfg.NodeDim
	hs1 := sliceRows(h, 0, 1, d)
	hs2 := sliceRows(h, 1, 2, d)
	direct := float64(served.Score(hs1, hs2).At(0, 0))
	diff := direct - sr.Logits[0]
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-5 {
		t.Fatalf("served score %v differs from direct %v", sr.Logits[0], direct)
	}
}

func sliceRows(t *tgopt.Tensor, lo, hi, d int) *tgopt.Tensor {
	data := make([]float32, (hi-lo)*d)
	copy(data, t.Data()[lo*d:hi*d])
	out := tgopt.NewTensor(hi-lo, d)
	copy(out.Data(), data)
	return out
}

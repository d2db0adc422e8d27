// Quickstart: build a small dynamic graph by hand, run baseline TGAT
// inference and TGOpt-optimized inference over it, and verify that the
// optimized embeddings are identical while arriving faster.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

func main() {
	// A tiny interaction stream: users 1-3 talk to items 4-6 over time.
	// Node ids are 1-based (0 is the padding node).
	edges := []graph.Edge{
		{Src: 1, Dst: 4, Time: 10},
		{Src: 2, Dst: 4, Time: 20},
		{Src: 1, Dst: 5, Time: 30},
		{Src: 3, Dst: 6, Time: 40},
		{Src: 1, Dst: 4, Time: 50},
		{Src: 2, Dst: 5, Time: 60},
		{Src: 3, Dst: 4, Time: 70},
		{Src: 1, Dst: 6, Time: 80},
	}
	g, err := graph.NewGraph(6, edges)
	if err != nil {
		log.Fatal(err)
	}

	// Feature tables: row 0 is the zero padding row. Node features are
	// zero vectors (the paper's convention); edge features are random.
	const d = 16
	r := tensor.NewRNG(42)
	nodeFeat := tensor.New(g.NumNodes()+1, d)
	edgeFeat := tensor.Randn(r, g.NumEdges()+1, d)
	for j := 0; j < d; j++ {
		edgeFeat.Set(0, 0, j)
	}

	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 3, Seed: 1}
	model, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		log.Fatal(err)
	}
	sampler := graph.NewSampler(g, cfg.NumNeighbors, graph.MostRecent, 0)

	// Ask for the temporal embedding of node 1 at time 90 — "what does
	// user 1 look like after all of this history?"
	nodes := []int32{1, 2, 3}
	ts := []float64{90, 90, 90}

	baseline := model.Embed(sampler, nodes, ts)
	fmt.Println("baseline embedding of node 1:", tensor.FromSlice(baseline.Row(0), 1, d))

	// The TGOpt engine is a drop-in replacement with dedup, memoization
	// and precomputed time encodings.
	engine := core.NewEngine(model, sampler, core.OptAll())
	optimized := engine.Embed(nodes, ts)
	fmt.Printf("max |baseline - tgopt| = %g (paper tolerance 1e-5)\n", baseline.MaxAbsDiff(optimized))

	// On a bigger synthetic workload the speedup becomes visible.
	spec, _ := dataset.SpecByName("jodie-wiki")
	ds, err := dataset.Generate(spec.Scale(0.002), dataset.Options{FeatureDim: d})
	if err != nil {
		log.Fatal(err)
	}
	wmodel, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		log.Fatal(err)
	}
	wsampler := graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)

	start := time.Now()
	tgat.StreamInference(ds.Graph, wmodel, 200, wmodel.BaselineEmbedFunc(wsampler))
	baseTime := time.Since(start)

	wengine := core.NewEngine(wmodel, wsampler, core.OptAll())
	start = time.Now()
	tgat.StreamInference(ds.Graph, wmodel, 200, wengine.EmbedFunc())
	optTime := time.Since(start)

	fmt.Printf("jodie-wiki (scaled): baseline %v, TGOpt %v — %.1fx speedup\n",
		baseTime.Round(time.Millisecond), optTime.Round(time.Millisecond),
		float64(baseTime)/float64(optTime))
}

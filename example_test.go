package tgopt_test

import (
	"fmt"

	"tgopt"
)

// ExampleNewEngine demonstrates that the TGOpt engine is a drop-in
// replacement for baseline TGAT inference: same targets, identical
// embeddings.
func ExampleNewEngine() {
	spec, _ := tgopt.DatasetByName("snap-msg")
	ds, _ := tgopt.Generate(spec.Scale(0.002), tgopt.DatasetOptions{FeatureDim: 16})
	cfg := tgopt.ModelConfig{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 5, Seed: 1}
	model, _ := tgopt.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	sampler := tgopt.NewSampler(ds.Graph, 5, tgopt.MostRecent, 0)
	engine := tgopt.NewEngine(model, sampler, tgopt.OptAll())

	nodes := []int32{1, 2, 3}
	times := []float64{1e6, 1e6, 2e6}
	baseline := model.Embed(sampler, nodes, times)
	optimized := engine.Embed(nodes, times)

	fmt.Println("shape:", optimized.Shape())
	fmt.Println("identical:", baseline.MaxAbsDiff(optimized) == 0)
	// Output:
	// shape: [3 16]
	// identical: true
}

// ExampleKey shows the collision-free node–timestamp packing of §4.1.
func ExampleKey() {
	fmt.Printf("%#x\n", tgopt.Key(2, 3))
	fmt.Println(tgopt.Key(1, 2) == tgopt.Key(2, 1))
	// Output:
	// 0x200000003
	// false
}

// ExampleNewGraph builds a small dynamic graph and inspects its
// temporal structure.
func ExampleNewGraph() {
	g, _ := tgopt.NewGraph(3, []tgopt.Edge{
		{Src: 1, Dst: 2, Time: 10},
		{Src: 1, Dst: 3, Time: 20},
		{Src: 2, Dst: 3, Time: 30},
	})
	fmt.Println("edges:", g.NumEdges())
	// N(1, t) uses the strict constraint t_j < t.
	fmt.Println("deg(1, 20):", g.TemporalDegree(1, 20))
	fmt.Println("deg(1, 21):", g.TemporalDegree(1, 21))
	// Output:
	// edges: 3
	// deg(1, 20): 1
	// deg(1, 21): 2
}

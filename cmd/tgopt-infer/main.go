// tgopt-infer is the Go analogue of the artifact's inference.py: it runs
// the standard inference task — iterate a dynamic graph's edges
// chronologically in batches and compute temporal embeddings for every
// interaction — with or without the TGOpt optimizations, printing
// runtime and, with --stats, the operation breakdown (per operation its
// wall time, items and calls), the hit rate from the cache counters,
// and cache usage; with --gpu --stats also the run's simulated
// transfers under both cache placements.
//
//	tgopt-infer -d snap-msg --opt-all --stats
//	tgopt-infer -d jodie-wiki --opt-cache --opt-dedup --cache-limit 100000
//	tgopt-infer --csv path/to/ml_custom.csv --opt-all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/device"
	"tgopt/internal/experiments"
	"tgopt/internal/graph"
	"tgopt/internal/npy"
	"tgopt/internal/tgat"
)

func main() {
	name := flag.String("d", "snap-msg", "dataset name (see tgopt-data list)")
	csvPath := flag.String("csv", "", "load edges from a TGAT-format CSV instead of generating")
	scale := flag.Float64("scale", 0.004, "synthetic dataset scale factor")
	batch := flag.Int("bs", 200, "batch size")
	dim := flag.Int("dim", 32, "feature width")
	heads := flag.Int("heads", 2, "attention heads")
	layers := flag.Int("layers", 2, "TGAT layers")
	k := flag.Int("n-degree", 10, "sampled most-recent neighbors")
	optAll := flag.Bool("opt-all", false, "enable all TGOpt optimizations")
	optDedup := flag.Bool("opt-dedup", false, "enable deduplication")
	optCache := flag.Bool("opt-cache", false, "enable embedding memoization")
	optTime := flag.Bool("opt-time", false, "enable precomputed time encodings")
	cacheLimit := flag.Int("cache-limit", 0, "cache item limit (0 = 2M scaled)")
	window := flag.Int("time-window", core.DefaultTimeWindow, "time-encoding window")
	gpu := flag.Bool("gpu", false, "price the run on the simulated accelerator")
	showStats := flag.Bool("stats", false, "print per-op wall time, items and calls, and the cache hit rate, items and size")
	modelPath := flag.String("model", "", "load trained parameters from this checkpoint")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	flag.Parse()

	setup := experiments.Setup{
		Scale: *scale, BatchSize: *batch, NodeDim: *dim, Heads: *heads,
		Layers: *layers, K: *k, TimeWindow: *window, Seed: *seed,
		CacheLimit: *cacheLimit,
	}

	var wl *experiments.Workload
	var err error
	if *csvPath != "" {
		wl, err = loadCSVWorkload(*csvPath, setup)
	} else {
		wl, err = experiments.LoadWorkload(*name, setup)
	}
	if err != nil {
		fatal(err)
	}
	wl.SetBatchSize(*batch)
	if *modelPath != "" {
		if err := wl.Model.LoadParams(*modelPath); err != nil {
			fatal(err)
		}
	}

	opt := core.Options{
		EnableDedup:          *optDedup || *optAll,
		EnableCache:          *optCache || *optAll,
		EnableTimePrecompute: *optTime || *optAll,
		CacheLimit:           setup.EffectiveCacheLimit(),
		TimeWindow:           *window,
	}
	kind := experiments.CPU
	if *gpu {
		kind = experiments.GPU
	}

	fmt.Printf("dataset %s: %d nodes, %d edges, batch %d, L=%d k=%d d=%d\n",
		*name, wl.DS.Graph.NumNodes(), wl.DS.Graph.NumEdges(), *batch, *layers, *k, *dim)
	fmt.Printf("optimizations: dedup=%v cache=%v time-precompute=%v (limit %d, window %d) device=%s\n",
		opt.EnableDedup, opt.EnableCache, opt.EnableTimePrecompute,
		opt.CacheLimit, opt.TimeWindow, kind)

	start := time.Now()
	res := experiments.RunInference(wl, opt, kind)
	wall := time.Since(start)
	fmt.Printf("runtime: %v", res.Runtime)
	if kind == experiments.GPU {
		fmt.Printf(" (simulated; host wall %v)", wall)
	}
	fmt.Println()

	if *showStats {
		fmt.Println("\noperation breakdown (wall time, items, calls):")
		fmt.Print(res.Engine.Ops().String())
		if opt.EnableCache {
			fmt.Printf("avg hit rate:   %.2f%%\n", 100*res.HitRate.Average())
			fmt.Printf("cache items:    %d\n", res.Engine.CacheLen())
			fmt.Printf("cache size:     %.1f MiB\n", float64(res.Engine.CacheBytes())/(1<<20))
		}
		if kind == experiments.GPU {
			for _, place := range []device.Placement{device.CacheOnHost, device.CacheOnDevice} {
				p := res.Price(place)
				fmt.Printf("cache on %s:    simulated %v\n", place, p.Total)
				for _, d := range []device.Direction{device.HtoD, device.DtoH, device.DtoD} {
					x := p.Transfers[d]
					fmt.Printf("  memcpy %-5s  %d calls, %d bytes, %v (%.2f%%)\n", d, x.Calls, x.Bytes, x.Time, p.Pct(d))
				}
			}
		}
	}
}

// loadCSVWorkload builds a workload around an external edge list in the
// artifact's layout. If ml_{name}.npy / ml_{name}_node.npy feature
// files sit next to the CSV, they are loaded (their width overrides the
// configured one); otherwise zero node features and Gaussian edge
// features are synthesized at the configured width (the artifact's
// missing-feature rule).
func loadCSVWorkload(path string, setup experiments.Setup) (*experiments.Workload, error) {
	g, err := dataset.LoadCSV(path)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.FromGraph("csv:"+path, g, dataset.Options{FeatureDim: setup.NodeDim}, setup.Seed)
	if err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(path, ".csv")
	if edgeFeat, err := npy.ReadFile(base + ".npy"); err == nil {
		nodeFeat, err := npy.ReadFile(base + "_node.npy")
		if err != nil {
			return nil, fmt.Errorf("found %s.npy but not its node features: %w", base, err)
		}
		if edgeFeat.Dim(0) != g.NumEdges()+1 || nodeFeat.Dim(0) != g.NumNodes()+1 {
			return nil, fmt.Errorf("feature tables (%d edges+1, %d nodes+1 rows) do not match graph (%d edges, %d nodes)",
				edgeFeat.Dim(0), nodeFeat.Dim(0), g.NumEdges(), g.NumNodes())
		}
		setup.NodeDim = edgeFeat.Dim(1)
		ds.EdgeFeat, ds.NodeFeat = edgeFeat, nodeFeat
	}
	m, err := tgat.NewModel(setup.ModelConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		return nil, err
	}
	s := graph.NewSampler(g, setup.K, graph.MostRecent, setup.Seed)
	return &experiments.Workload{DS: ds, Model: m, Sampler: s}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-infer:", err)
	os.Exit(1)
}

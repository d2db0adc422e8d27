// Benchmark harness: one testing.B benchmark (or family) per table and
// figure of the paper's evaluation, plus ablation benches for the
// design choices called out in DESIGN.md §6. Mapping:
//
//	Table 1   BenchmarkTable1Dedup
//	Figure 3  regenerated by `tgopt-bench fig3` (count-based, not timed)
//	Figure 4  BenchmarkTimeEncode (compute vs precomputed-table lookup)
//	Figure 5  BenchmarkFig5Inference/<dataset>/<baseline|tgopt>
//	Figure 6  BenchmarkFig6Ablation/<step>
//	Figure 7  regenerated by `tgopt-bench fig7` (count-based, not timed)
//	Table 3   BenchmarkOps/* (per-operation microbenchmarks)
//	Table 4   BenchmarkTable4CacheLimit/<limit>
//	Table 5   BenchmarkTable5Placement (one run, priced under both placements)
//	extra     BenchmarkCacheSharding, BenchmarkTimeWindow, BenchmarkSampler,
//	          BenchmarkEvictionPolicy, BenchmarkAttentionKernels,
//	          BenchmarkHashKeys
//
// Each benchmark times the call core.Engine's embed pass makes (the
// arena-backed *With/*Into forms, a layer pass over a pack built once).
// Benchmarks run the synthetic workloads at a small scale so the whole
// suite finishes in a few minutes; `cmd/tgopt-bench` runs the same
// experiments at larger scales with full reporting.
package tgopt_test

import (
	"sync"
	"testing"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/device"
	"tgopt/internal/experiments"
	"tgopt/internal/graph"
	"tgopt/internal/nn"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

const benchScale = 0.001

func benchSetup() experiments.Setup {
	return experiments.Setup{
		Scale: benchScale, BatchSize: 200, NodeDim: 32, Heads: 2,
		Layers: 2, K: 10, Runs: 1, TimeWindow: 10_000, Seed: 1,
	}
}

var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*experiments.Workload{}
)

func benchWorkload(b *testing.B, name string) *experiments.Workload {
	b.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if wl, ok := workloadCache[name]; ok {
		return wl
	}
	wl, err := experiments.LoadWorkload(name, benchSetup())
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[name] = wl
	return wl
}

// batchTargets packs the first batch of the workload's stream the way
// StreamInference does.
func batchTargets(wl *experiments.Workload, size int) ([]int32, []float64) {
	edges := wl.DS.Graph.Edges()
	if size > len(edges) {
		size = len(edges)
	}
	nodes := make([]int32, 2*size)
	ts := make([]float64, 2*size)
	for i, e := range edges[:size] {
		nodes[i], nodes[size+i] = e.Src, e.Dst
		ts[i], ts[size+i] = e.Time, e.Time
	}
	return nodes, ts
}

// layer1Targets simulates the pooled layer-1 input (targets plus
// sampled neighbors) that the dedup filter actually sees.
func layer1Targets(wl *experiments.Workload, size int) ([]int32, []float64) {
	nodes, ts := batchTargets(wl, size)
	bt := wl.Sampler.Sample(nodes, ts)
	n := len(nodes)
	all := make([]int32, n+n*bt.K)
	allTs := make([]float64, n+n*bt.K)
	copy(all, nodes)
	copy(allTs, ts)
	copy(all[n:], bt.Nghs)
	copy(allTs[n:], bt.Times)
	return all, allTs
}

// ---- Table 1: deduplication -------------------------------------------

func BenchmarkTable1Dedup(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := layer1Targets(wl, 200)
	ar := tensor.NewArena()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DedupFilterWith(ar, nodes, ts)
		ar.Reset()
	}
}

// ---- Figure 4 / §4.3: time encoding -----------------------------------

func BenchmarkTimeEncode(b *testing.B) {
	enc := nn.NewTimeEncoder(32)
	table := core.NewTimeTable(enc, 10_000)
	r := tensor.NewRNG(1)
	dts := make([]float64, 4000)
	for i := range dts {
		dts[i] = float64(r.Intn(9000)) // all in-window: the paper's hot case
	}
	out := tensor.New(len(dts), 32)
	b.Run("compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enc.EncodeInto(dts, out)
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			table.EncodeIntoWith(nil, dts, out)
		}
	})
}

func BenchmarkTimeWindow(b *testing.B) {
	enc := nn.NewTimeEncoder(32)
	r := tensor.NewRNG(2)
	dts := make([]float64, 4000)
	for i := range dts {
		dts[i] = float64(r.Intn(40_000)) // mixed hits/misses
	}
	out := tensor.New(len(dts), 32)
	for _, window := range []int{100, 1000, 10_000, 50_000} {
		table := core.NewTimeTable(enc, window)
		b.Run(byteSize(window), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table.EncodeIntoWith(nil, dts, out)
			}
		})
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1_000_000:
		return itoa(n/1_000_000) + "M"
	case n >= 1000:
		return itoa(n/1000) + "K"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---- Figure 5: end-to-end inference ------------------------------------

func BenchmarkFig5Inference(b *testing.B) {
	for _, name := range dataset.Names() {
		wl := benchWorkload(b, name)
		b.Run(name+"/baseline", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := core.NewEngine(wl.Model, wl.Sampler, core.Options{})
				tgat.StreamInference(wl.DS.Graph, wl.Model, 200, eng.EmbedFunc())
			}
		})
		b.Run(name+"/tgopt", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.OptAll()
				opt.CacheLimit = benchSetup().EffectiveCacheLimit()
				eng := core.NewEngine(wl.Model, wl.Sampler, opt)
				tgat.StreamInference(wl.DS.Graph, wl.Model, 200, eng.EmbedFunc())
			}
		})
	}
}

// ---- Figure 6: ablation -------------------------------------------------

func BenchmarkFig6Ablation(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	for _, step := range experiments.AblationSteps(benchSetup()) {
		step := step
		b.Run(step.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := core.NewEngine(wl.Model, wl.Sampler, step.Options)
				tgat.StreamInference(wl.DS.Graph, wl.Model, 200, eng.EmbedFunc())
			}
		})
	}
}

// ---- Table 3: per-operation microbenchmarks ----------------------------

func BenchmarkOps(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := layer1Targets(wl, 200)
	res := core.DedupFilter(nodes, ts)
	keys := make([]uint64, res.Unique())
	core.ComputeKeysInto(keys, res.Nodes, res.Times)
	d := wl.Model.Cfg.NodeDim
	emb := tensor.Rand(tensor.NewRNG(3), len(keys), d)

	b.Run("NghLookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wl.Sampler.Sample(res.Nodes, res.Times)
		}
	})
	b.Run("ComputeKeys", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ComputeKeysInto(keys, res.Nodes, res.Times)
		}
	})
	b.Run("CacheStore", func(b *testing.B) {
		cache := core.NewCacheWith(core.CacheConfig{Limit: 1 << 20, Dim: d, Shards: 16})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Store(keys, emb)
		}
	})
	b.Run("CacheLookup", func(b *testing.B) {
		cache := core.NewCacheWith(core.CacheConfig{Limit: 1 << 20, Dim: d, Shards: 16})
		cache.Store(keys, emb)
		dst := tensor.New(len(keys), d)
		hits := make([]bool, len(keys))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.LookupInto(keys, dst, hits)
		}
	})
	b.Run("DedupInvert", func(b *testing.B) {
		uniq := tensor.Rand(tensor.NewRNG(4), res.Unique(), d)
		ar := tensor.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.DedupInvertWith(ar, uniq, res.InvIdx)
			ar.Reset()
		}
	})
	b.Run("AttentionM", func(b *testing.B) {
		bt := wl.Sampler.Sample(res.Nodes, res.Times)
		n := len(res.Nodes)
		k := bt.K
		r := tensor.NewRNG(5)
		hTgt := tensor.Rand(r, n, d)
		hNgh := tensor.Rand(r, n*k, d)
		eFeat := tensor.Rand(r, n*k, d)
		tEnc0 := wl.Model.Time.Encode(make([]float64, n))
		// The pass the engine runs: the tiles encode each valid slot's
		// Δt through the time table.
		deltas := make([]float64, n*k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				deltas[i*k+j] = res.Times[i] - bt.Times[i*k+j]
			}
		}
		tEncD := nn.TimeRows{Deltas: deltas, Source: core.NewTimeTable(wl.Model.Time, core.OptAll().TimeWindow)}
		packs := wl.Model.PackLayers()
		ar := tensor.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wl.Model.LayerForwardPacked(ar, 1, &packs[0], nn.Rows{Data: hTgt}, nn.Rows{Data: hNgh}, nn.Rows{Data: eFeat}, tEnc0, tEncD, bt.Valid)
			ar.Reset()
		}
	})
}

// ---- Table 4: cache limit sweep -----------------------------------------

func BenchmarkTable4CacheLimit(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	for _, limit := range []int{64, 256, 1024, 4096} {
		limit := limit
		b.Run(byteSize(limit), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.OptAll()
				opt.CacheLimit = limit
				eng := core.NewEngine(wl.Model, wl.Sampler, opt)
				tgat.StreamInference(wl.DS.Graph, wl.Model, 200, eng.EmbedFunc())
			}
		})
	}
}

// ---- Table 5: cache placement under the simulated device ----------------

// BenchmarkTable5Placement runs the engine once per iteration and prices
// that run under both cache placements.
func BenchmarkTable5Placement(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	opt := core.OptAll()
	opt.CacheLimit = benchSetup().EffectiveCacheLimit()
	for i := 0; i < b.N; i++ {
		res := experiments.RunInference(wl, opt, experiments.GPU)
		b.ReportMetric(res.Price(device.CacheOnHost).Total.Seconds(), "host-sim-s/op")
		b.ReportMetric(res.Price(device.CacheOnDevice).Total.Seconds(), "device-sim-s/op")
	}
}

// ---- Additional ablations -----------------------------------------------

func BenchmarkCacheSharding(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := layer1Targets(wl, 200)
	res := core.DedupFilter(nodes, ts)
	keys := make([]uint64, res.Unique())
	core.ComputeKeysInto(keys, res.Nodes, res.Times)
	d := wl.Model.Cfg.NodeDim
	emb := tensor.Rand(tensor.NewRNG(6), len(keys), d)
	dst := tensor.New(len(keys), d)
	hits := make([]bool, len(keys))
	for _, shards := range []int{1, 4, 16, 64} {
		shards := shards
		b.Run(byteSize(shards), func(b *testing.B) {
			cache := core.NewCacheWith(core.CacheConfig{Limit: 1 << 20, Dim: d, Shards: shards})
			cache.Store(keys, emb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.LookupInto(keys, dst, hits)
				cache.Store(keys, emb)
			}
		})
	}
}

func BenchmarkSampler(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := batchTargets(wl, 200)
	b.Run("most-recent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wl.Sampler.Sample(nodes, ts)
		}
	})
	uniform := graph.NewSampler(wl.DS.Graph, wl.Sampler.K(), graph.Uniform, 1)
	b.Run("uniform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			uniform.Sample(nodes, ts)
		}
	})
}

func BenchmarkHashKeys(b *testing.B) {
	r := tensor.NewRNG(7)
	n := 8192
	nodes := make([]int32, n)
	ts := make([]float64, n)
	for i := range nodes {
		nodes[i] = int32(r.Intn(1 << 20))
		ts[i] = float64(r.Intn(1 << 30))
	}
	keys := make([]uint64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeKeysInto(keys, nodes, ts)
	}
}

// BenchmarkEvictionPolicy measures the cost of FIFO eviction churn: a
// stream of fresh keys through a tight cache (every store evicts)
// versus a roomy one (no evictions). The delta is the bookkeeping price
// of the §4.2.2 memory bound.
func BenchmarkEvictionPolicy(b *testing.B) {
	const d = 32
	const batch = 512
	emb := tensor.Rand(tensor.NewRNG(8), batch, d)
	for _, tc := range []struct {
		name  string
		limit int
	}{
		{"no-eviction", 1 << 30},
		{"fifo-churn", batch / 2},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cache := core.NewCacheWith(core.CacheConfig{Limit: tc.limit, Dim: d, Shards: 16, Policy: core.CacheFIFO})
			keys := make([]uint64, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = uint64(i)<<32 | uint64(j) // always fresh
				}
				cache.Store(keys, emb)
			}
		})
	}
}

// BenchmarkAttentionKernels times the absorbed attention kernel
// (K/V projections folded into the single query, DESIGN.md §6.1) alone
// and inside the layer pass the engine runs (§6.2): WQ, attention, WO
// and the merge layer over a weight pack built once. The kernel against
// its explicit-projection reference is internal/nn's
// BenchmarkAbsorbedVsProjected.
func BenchmarkAttentionKernels(b *testing.B) {
	r := tensor.NewRNG(9)
	attn := nn.NewTemporalAttention(tensor.NewRNG(1), 2, 64, 96)
	n, k := 1024, 10
	q := tensor.Randn(r, n, 64)
	kv := tensor.Randn(r, n*k, 96)
	mask := make([]bool, n*k)
	for i := range mask {
		mask[i] = i%7 != 0
	}
	// The leaves under the absorbed core are whatever the process
	// dispatches to (DESIGN.md §6.3), named by tensor.Kernels():
	// "avx512" or "avx2" on amd64, "generic" when the benchmark is built
	// with -tags purego.
	b.Run("absorbed/"+tensor.Kernels(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attn.Forward(q, kv, k, mask, false)
		}
	})
	// The same shapes split into the layer's inputs: q is a 32-wide
	// target row and its time encoding, kv a neighbor row, its edge
	// features and its time encoding.
	b.Run("layer-packed/"+tensor.Kernels(), func(b *testing.B) {
		merge := nn.NewMergeLayer(tensor.NewRNG(2), attn.EmbedDim, 32, 32, 32)
		pack := nn.PackLayer(nil, attn, merge)
		hTgt, tEnc0 := tensor.Randn(r, n, 32), tensor.Randn(r, n, 32)
		hNgh, eFeat, tEncD := tensor.Randn(r, n*k, 32), tensor.Randn(r, n*k, 32), tensor.Randn(r, n*k, 32)
		ar := tensor.NewArena()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nn.LayerForwardPacked(ar, attn, merge, &pack, k, nn.Rows{Data: hTgt}, nn.Rows{Data: hNgh}, nn.Rows{Data: eFeat}, tEnc0, nn.TimeRows{Enc: tEncD}, mask)
			ar.Reset()
		}
	})
}

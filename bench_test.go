// Benchmark harness: one testing.B benchmark (or family) per table and
// figure of the paper's evaluation, plus ablation benches for the
// design choices called out in DESIGN.md §6. Mapping:
//
//	Table 1   BenchmarkTable1Dedup, BenchmarkDedupStrategies
//	Figure 3  regenerated by `tgopt-bench fig3` (count-based, not timed)
//	Figure 4  BenchmarkTimeEncode (compute vs precomputed-table lookup)
//	Figure 5  BenchmarkFig5Inference/<dataset>/<baseline|tgopt>
//	Figure 6  BenchmarkFig6Ablation/<step>
//	Figure 7  regenerated by `tgopt-bench fig7` (count-based, not timed)
//	Table 3   BenchmarkOps/* (per-operation microbenchmarks)
//	Table 4   BenchmarkTable4CacheLimit/<limit>
//	Table 5   BenchmarkTable5Placement/<host|device>
//	extra     BenchmarkCacheSharding, BenchmarkTimeWindow, BenchmarkSampler,
//	          BenchmarkEvictionPolicy, BenchmarkAttentionKernels,
//	          BenchmarkDedupStrategies, BenchmarkHashKeys
//
// Benchmarks run the synthetic workloads at a small scale so the whole
// suite finishes in a few minutes; `cmd/tgopt-bench` runs the same
// experiments at larger scales with full reporting.
package tgopt_test

import (
	"sync"
	"testing"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.DedupFilter(nodes, ts)
	}
}

func BenchmarkDedupStrategies(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := layer1Targets(wl, 200)
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DedupFilter(nodes, ts)
		}
	})
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DedupFilterSorted(nodes, ts)
		}
	})
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
			table.EncodeInto(dts, out)
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
				table.EncodeInto(dts, out)
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
	keys := core.ComputeKeys(res.Nodes, res.Times)
	d := wl.Model.Cfg.NodeDim
	emb := tensor.Rand(tensor.NewRNG(3), len(keys), d)

	b.Run("NghLookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wl.Sampler.Sample(res.Nodes, res.Times)
		}
	})
	b.Run("ComputeKeys", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.ComputeKeys(res.Nodes, res.Times)
		}
	})
	b.Run("CacheStore", func(b *testing.B) {
		cache := core.NewCache(1<<20, d, 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Store(keys, emb)
		}
	})
	b.Run("CacheLookup", func(b *testing.B) {
		cache := core.NewCache(1<<20, d, 16)
		cache.Store(keys, emb)
		dst := tensor.New(len(keys), d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Lookup(keys, dst)
		}
	})
	b.Run("DedupInvert", func(b *testing.B) {
		uniq := tensor.Rand(tensor.NewRNG(4), res.Unique(), d)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.DedupInvert(uniq, res.InvIdx)
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
		tEncD := wl.Model.Time.Encode(make([]float64, n*k))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wl.Model.LayerForward(1, hTgt, hNgh, eFeat, tEnc0, tEncD, bt.Valid)
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

func BenchmarkTable5Placement(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	for _, onDevice := range []bool{false, true} {
		onDevice := onDevice
		name := "host"
		if onDevice {
			name = "device"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := core.OptAll()
				opt.CacheLimit = benchSetup().EffectiveCacheLimit()
				opt.CacheOnDevice = onDevice
				res := experiments.RunInference(wl, opt, experiments.GPU)
				b.ReportMetric(res.Runtime.Seconds(), "sim-s/op")
			}
		})
	}
}

// ---- Additional ablations -----------------------------------------------

func BenchmarkCacheSharding(b *testing.B) {
	wl := benchWorkload(b, "jodie-lastfm")
	nodes, ts := layer1Targets(wl, 200)
	res := core.DedupFilter(nodes, ts)
	keys := core.ComputeKeys(res.Nodes, res.Times)
	d := wl.Model.Cfg.NodeDim
	emb := tensor.Rand(tensor.NewRNG(6), len(keys), d)
	dst := tensor.New(len(keys), d)
	for _, shards := range []int{1, 4, 16, 64} {
		shards := shards
		b.Run(byteSize(shards), func(b *testing.B) {
			cache := core.NewCache(1<<20, d, shards)
			cache.Store(keys, emb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cache.Lookup(keys, dst)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeKeys(nodes, ts)
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
			cache := core.NewCache(tc.limit, d, 16)
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

// BenchmarkAttentionKernels contrasts the absorbed attention kernel
// (K/V projections folded into the single query, DESIGN.md §6.1)
// against the batched-matmul formulation a tensor framework would use,
// which projects every neighbor row.
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
	// dispatches to (DESIGN.md §6.3): "avx2" here, "generic" when the
	// benchmark is built with -tags purego.
	b.Run("absorbed/"+tensor.Kernels(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attn.Forward(q, kv, k, mask, false)
		}
	})
	b.Run("batched-matmul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			attn.ForwardBatched(q, kv, k, mask)
		}
	})
}

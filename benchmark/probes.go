package main

import (
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// leafInput is one recorded operation: the targets handed to
// Engine.EmbedWith, how long that call took in the traced run (at
// reference host speed), and how
// many rows each layer had to compute then (Misses[l], from the
// engine's per-layer cache counters read before and after the call;
// the uncached top layer computes every unique target).
type leafInput struct {
	Nodes  []int32
	Times  []float64
	Misses []int
	SpanNs int64
}

// leafCosts sums, over the recorded operations, the time each leaf
// public function took when replayed on the recorded inputs and the
// units of work it did. The replay runs after the measured pass and
// after every counter has been read, so it disturbs nothing reported.
type leafCosts struct {
	DedupNs, DedupIn, DedupUniq        int64
	LookupNs, LookupKeys               int64
	SampleNs, SampleTargets            int64
	TimeEncNs, TimeEncDeltas, TimeHits int64
	AttnNs, LayerNs, LayerRows         int64
	StoreNs, StoreEntries              int64
	PackedNs, PackedFlops              int64
	SparseNs, SparseFlops              int64
	SpanNs                             int64
}

// leafEnv is what the replay needs from a workload: the model, a
// sampler over the final graph, the engine whose caches and time table
// are probed, and scratch caches of the same shape for the store probe
// (storing into the live cache would change what later probes find).
type leafEnv struct {
	model   *tgat.Model
	sampler *graph.Sampler
	eng     *core.Engine
	scratch []*core.Cache
}

func newLeafEnv(m *tgat.Model, s *graph.Sampler, eng *core.Engine) *leafEnv {
	env := &leafEnv{model: m, sampler: s, eng: eng, scratch: make([]*core.Cache, m.Cfg.Layers+1)}
	for l := 1; l <= m.Cfg.Layers; l++ {
		if c := eng.CacheFor(l); c != nil {
			env.scratch[l] = core.NewCacheWith(core.CacheConfig{
				Limit: c.Limit(), Dim: c.Dim(), Shards: 16, Policy: c.Policy(),
			})
		}
	}
	return env
}

// replay prices every recorded operation, at reference host speed. The
// first two are replayed once untimed so arena slabs have grown, as they
// have in the engine.
func (env *leafEnv) replay(inputs []leafInput, h *hostRef) leafCosts {
	var c leafCosts
	ar := tensor.NewArena()
	for i := 0; i < len(inputs) && i < 2; i++ {
		var scrap leafCosts
		env.replayOne(ar, &inputs[i], &scrap)
	}
	m := h.mark()
	h.probe()
	for i := range inputs {
		env.replayOne(ar, &inputs[i], &c)
		h.probe()
	}
	f := h.factorSince(m)
	for _, ns := range []*int64{&c.DedupNs, &c.LookupNs, &c.SampleNs, &c.TimeEncNs, &c.AttnNs, &c.LayerNs, &c.StoreNs, &c.PackedNs, &c.SparseNs} {
		*ns = int64(float64(*ns) / f)
	}
	for i := range inputs {
		c.SpanNs += inputs[i].SpanNs
	}
	return c
}

func (env *leafEnv) replayOne(ar *tensor.Arena, in *leafInput, c *leafCosts) {
	ar.Reset()
	cfg := env.model.Cfg
	d, k := cfg.NodeDim, cfg.NumNeighbors
	nodes, ts := in.Nodes, in.Times
	for l := cfg.Layers; l >= 1; l-- {
		t0 := time.Now()
		dd := core.DedupFilterWith(ar, nodes, ts)
		core.DedupInvertWith(ar, ar.Tensor(len(dd.Nodes), d), dd.InvIdx)
		c.DedupNs += int64(time.Since(t0))
		c.DedupIn += int64(len(nodes))
		c.DedupUniq += int64(len(dd.Nodes))

		n := len(dd.Nodes)
		var keys []uint64
		cache := env.eng.CacheFor(l)
		m := n
		if cache != nil {
			t0 = time.Now()
			keys = ar.Uint64s(n)
			core.ComputeKeysInto(keys, dd.Nodes, dd.Times)
			cache.LookupInto(keys, ar.Tensor(n, d), ar.Bools(n))
			c.LookupNs += int64(time.Since(t0))
			c.LookupKeys += int64(n)
			if l < len(in.Misses) && in.Misses[l] < m {
				m = in.Misses[l]
			}
		}
		if m == 0 {
			return
		}
		missNodes, missTs := dd.Nodes[:m], dd.Times[:m]

		b := graph.Batch{K: k, Nghs: ar.Int32s(m * k), EIdxs: ar.Int32s(m * k), Times: ar.Float64s(m * k), Valid: ar.Bools(m * k)}
		t0 = time.Now()
		env.sampler.SampleTo(&b, missNodes, missTs)
		c.SampleNs += int64(time.Since(t0))
		c.SampleTargets += int64(m)

		deltas := ar.Float64s(m * k)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				deltas[i*k+j] = missTs[i] - b.Times[i*k+j]
			}
		}
		tEnc0 := ar.Tensor(m, cfg.TimeDim)
		tEncD := ar.Tensor(m*k, cfg.TimeDim)
		if tt := env.eng.TimeTable(); tt != nil {
			t0 = time.Now()
			tt.EncodeZerosInto(m, tEnc0)
			hits := tt.EncodeIntoWith(ar, deltas, tEncD)
			c.TimeEncNs += int64(time.Since(t0))
			c.TimeEncDeltas += int64(m * k)
			c.TimeHits += int64(hits)
		}

		hTgt := filled(ar, m, d)
		hNgh := filled(ar, m*k, d)
		eFeat := filled(ar, m*k, cfg.EdgeDim)
		t0 = time.Now()
		hm := env.model.LayerForwardWith(ar, l, hTgt, hNgh, eFeat, tEnc0, tEncD, b.Valid)
		c.LayerNs += int64(time.Since(t0))
		c.LayerRows += int64(m)

		q := filled(ar, m, cfg.QDim())
		kv := filled(ar, m*k, cfg.KDim())
		t0 = time.Now()
		env.model.Attn[l-1].ForwardWith(ar, q, kv, k, b.Valid)
		c.AttnNs += int64(time.Since(t0))

		if sc := env.scratch[l]; sc != nil {
			t0 = time.Now()
			sc.Store(keys[:m], hm)
			c.StoreNs += int64(time.Since(t0))
			c.StoreEntries += int64(m)
		}

		// The two kernels at this miss batch's shapes: the key/value
		// projection (m·k rows of KDim into the attention width) and the
		// masked-softmax α·V product per head.
		proj := filled(ar, cfg.KDim(), cfg.QDim())
		dst := ar.Tensor(m*k, cfg.QDim())
		pack := ar.Float32s(tensor.PackedScratchLen(cfg.KDim(), cfg.QDim()))
		t0 = time.Now()
		tensor.MatMulPackedInto(kv, proj, dst, pack)
		c.PackedNs += int64(time.Since(t0))
		c.PackedFlops += int64(2 * m * k * cfg.KDim() * cfg.QDim())

		hd := cfg.QDim() / cfg.Heads
		alpha := ar.Tensor(m*cfg.Heads, 1, k)
		for i, v := range b.Valid {
			w := float32(0)
			if v {
				w = 1 / float32(k)
			}
			for h := 0; h < cfg.Heads; h++ {
				alpha.Data()[(i/k*cfg.Heads+h)*k+i%k] = w
			}
		}
		vals := ar.Wrap(dst.Data()[:m*cfg.Heads*k*hd], m*cfg.Heads, k, hd)
		ctx := ar.Tensor(m*cfg.Heads, 1, hd)
		t0 = time.Now()
		tensor.BatchedMatMulSparseInto(alpha, vals, ctx)
		c.SparseNs += int64(time.Since(t0))
		c.SparseFlops += int64(2 * m * cfg.Heads * k * hd)

		next := m + m*k
		allNodes, allTs := ar.Int32s(next), ar.Float64s(next)
		copy(allNodes, missNodes)
		copy(allTs, missTs)
		copy(allNodes[m:], b.Nghs)
		copy(allTs[m:], b.Times)
		nodes, ts = allNodes, allTs
	}
}

// filled returns an arena tensor holding small finite values: arena
// scratch is dirty, and denormals or NaNs would change kernel timing.
func filled(ar *tensor.Arena, shape ...int) *tensor.Tensor {
	t := ar.Tensor(shape...)
	data := t.Data()
	for i := range data {
		data[i] = float32(i%13-6) * 0.03125
	}
	return t
}

// into writes the leaf metrics. Leaf probes reconcile top-down against
// the recorded Engine.EmbedWith spans: what the priced leaves do not
// cover (feature gathers, miss compaction, row copies) is printed as
// core.unattributed_frac, not hidden.
func (c leafCosts) into(m metricSet) {
	us := func(ns, n int64) float64 { return ratio(float64(ns)/1e3, float64(n)) }
	m["tensor.matmul_packed_gflops"] = ratio(float64(c.PackedFlops), float64(c.PackedNs))
	m["tensor.matmul_sparse_gflops"] = ratio(float64(c.SparseFlops), float64(c.SparseNs))
	m["nn.attention_us_per_target"] = us(c.AttnNs, c.LayerRows)
	m["tgat.layer_us_per_target"] = us(c.LayerNs, c.LayerRows)
	m["graph.sample_us_per_target"] = us(c.SampleNs, c.SampleTargets)
	m["core.dedup_us_per_target"] = us(c.DedupNs, c.DedupIn)
	m["core.dedup_ratio"] = ratio(float64(c.DedupIn-c.DedupUniq), float64(c.DedupIn))
	m["core.cache_lookup_us_per_key"] = us(c.LookupNs, c.LookupKeys)
	m["core.cache_store_us_per_entry"] = us(c.StoreNs, c.StoreEntries)
	m["core.timeenc_us_per_delta"] = us(c.TimeEncNs, c.TimeEncDeltas)
	m["core.timeenc_table_hit_ratio"] = ratio(float64(c.TimeHits), float64(c.TimeEncDeltas))
	priced := c.DedupNs + c.LookupNs + c.SampleNs + c.TimeEncNs + c.LayerNs + c.StoreNs
	m["core.unattributed_frac"] = 1 - ratio(float64(priced), float64(c.SpanNs))
}

// layerMisses reads how many rows each cached layer has had to compute
// so far, summed over engines.
func layerMisses(layers int, engs []*core.Engine) []int {
	out := make([]int, layers+1)
	for _, e := range engs {
		for _, s := range e.LayerCacheStats() {
			out[s.Layer] += int(s.Misses)
		}
	}
	return out
}

// memoRatios writes the memo hit ratios over a measured pass from the
// engines' cache counters before and after it.
func memoRatios(m metricSet, before, after []core.LayerCacheStats) {
	names := []string{"", "core.memo_hit_ratio_l1", "core.memo_hit_ratio_l2", "core.memo_hit_ratio_l3"}
	var hits, lookups float64
	for _, a := range after {
		h, n := float64(a.Hits), float64(a.Lookups)
		for _, b := range before {
			if b.Layer == a.Layer {
				h -= float64(b.Hits)
				n -= float64(b.Lookups)
			}
		}
		hits += h
		lookups += n
		if a.Layer < len(names) {
			m[names[a.Layer]] = ratio(h, n)
		}
	}
	m["core.memo_hit_ratio"] = ratio(hits, lookups)
}

package core

import (
	"path/filepath"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Warm-start pricing fixture: a live graph of a million edges among
// 10 000 nodes and a layer-1 cache filled to its limit.
const (
	benchSnapEdges = 1_000_000
	benchSnapNodes = 10_000
	benchSnapRows  = 1 << 18
)

// snapshotBenchEngine returns an engine over the pricing graph whose
// layer-1 cache is full: rows at distinct ⟨node, t⟩ keys, each tagged
// with its window, as a miss store tags it. The row values are random;
// a load never reads them.
func snapshotBenchEngine(b *testing.B) *Engine {
	b.Helper()
	r := tensor.NewRNG(5)
	dyn := graph.NewDynamic(benchSnapNodes)
	for i := 0; i < benchSnapEdges; i++ {
		src, dst := int32(1+r.Intn(benchSnapNodes)), int32(1+r.Intn(benchSnapNodes))
		if _, err := dyn.Append(graph.Edge{Src: src, Dst: dst, Time: float64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 16, EdgeDim: 16, TimeDim: 16, NumNeighbors: 10, Seed: 3}
	m, err := tgat.NewModel(cfg, tensor.Randn(r, benchSnapNodes+1, 16), tensor.Randn(r, benchSnapEdges+1, 16))
	if err != nil {
		b.Fatal(err)
	}
	opt := OptAll()
	opt.CacheLimit = benchSnapRows
	eng := NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), opt)

	const chunk = 4096
	k := cfg.NumNeighbors
	c := eng.CacheFor(1)
	for c.Len() < c.Limit() {
		nodes, ts, keys, tags := make([]int32, chunk), make([]float64, chunk), make([]uint64, chunk), make([]uint64, chunk)
		for i := range nodes {
			nodes[i], ts[i] = int32(1+r.Intn(benchSnapNodes)), float64(1+r.Intn(benchSnapEdges))
			keys[i] = Key(nodes[i], ts[i])
		}
		bt := graph.Batch{K: k, Nghs: make([]int32, chunk*k), EIdxs: make([]int32, chunk*k), Times: make([]float64, chunk*k), Valid: make([]bool, chunk*k)}
		eng.sampler.SampleTo(&bt, nodes, ts)
		for i := range tags {
			tags[i] = windowTag(&bt, i)
		}
		c.storeExact(keys, nil, tags, tensor.Randn(r, chunk, cfg.NodeDim))
	}
	return eng
}

// BenchmarkSnapshotSaveLoad prices a warm start over the fixture: the
// inputs-digest scan alone, a save (digest plus blob), and a load into
// a cold engine (digest, parse, one re-sample and store per row). Every
// row is kept, so the load pays the whole absorb path.
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	eng := snapshotBenchEngine(b)
	rows := eng.CacheLen()
	path := filepath.Join(b.TempDir(), "cache.tgc")
	if err := eng.SaveCaches(path); err != nil {
		b.Fatal(err)
	}
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	}
	b.Run("digest", func(b *testing.B) {
		for range b.N {
			eng.inputsDigest()
		}
	})
	b.Run("save", func(b *testing.B) {
		for range b.N {
			if err := eng.SaveCaches(path); err != nil {
				b.Fatal(err)
			}
		}
		perRow(b)
	})
	b.Run("load", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			cold := NewEngine(eng.model, eng.sampler, eng.opt)
			b.StartTimer()
			if err := cold.LoadCaches(path); err != nil {
				b.Fatal(err)
			}
			if n := cold.CacheLen(); n != rows {
				b.Fatalf("loaded %d of %d rows", n, rows)
			}
		}
		perRow(b)
	})
}

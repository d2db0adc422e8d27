package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"

	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

func TestCachePersistenceRoundTrip(t *testing.T) {
	c := NewCache(100, 3, 4)
	r := tensor.NewRNG(1)
	keys := make([]uint64, 20)
	vals := tensor.Rand(r, 20, 3)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	c.Store(keys, vals)

	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(100, 3, 8) // different shard count is fine
	if _, err := c2.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 20 {
		t.Fatalf("restored %d entries, want 20", c2.Len())
	}
	dst := tensor.New(20, 3)
	_, nh := c2.Lookup(keys, dst)
	if nh != 20 {
		t.Fatalf("restored lookup hits = %d", nh)
	}
	if !dst.AllClose(vals, 0) {
		t.Fatal("restored values differ")
	}
}

func TestCachePersistenceDimMismatch(t *testing.T) {
	c := NewCache(10, 3, 1)
	c.Store([]uint64{1}, tensor.Ones(1, 3))
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(10, 4, 1)
	if _, err := c2.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	c3 := NewCache(10, 3, 1)
	if _, err := c3.ReadFrom(bytes.NewReader([]byte{9, 9, 9, 9})); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := c3.ReadFrom(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestCachePersistenceRespectsLimit(t *testing.T) {
	big := NewCache(1000, 2, 1)
	r := tensor.NewRNG(2)
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	big.Store(keys, tensor.Rand(r, 100, 2))
	var buf bytes.Buffer
	if _, err := big.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	small := NewCache(10, 2, 1)
	if _, err := small.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if small.Len() > 10 {
		t.Fatalf("restore exceeded limit: %d", small.Len())
	}
}

func TestEngineSaveLoadCachesWarmStart(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	warmLen := eng.CacheLen()
	if warmLen == 0 {
		t.Fatal("no warm state to persist")
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}

	// A fresh engine restores the warm state and serves identical
	// results with immediate hits.
	eng2 := NewEngine(m, s, OptAll())
	if err := eng2.LoadCaches(path); err != nil {
		t.Fatal(err)
	}
	if eng2.CacheLen() != warmLen {
		t.Fatalf("restored %d entries, warm had %d", eng2.CacheLen(), warmLen)
	}
	nodes := []int32{1, 2, 3}
	ts := []float64{4e4, 4e4, 4.9e4}
	want := m.Embed(s, nodes, ts)
	got := eng2.Embed(nodes, ts)
	if d := got.MaxAbsDiff(want); d > 1e-5 {
		t.Fatalf("warm-restored embeddings differ by %g", d)
	}
}

func TestEngineSaveLoadCachesValidation(t *testing.T) {
	ds, m, s := engineTestSetup(t, 200)
	noCache := NewEngine(m, s, Options{})
	dir := t.TempDir()
	if err := noCache.SaveCaches(filepath.Join(dir, "x.bin")); err == nil {
		t.Fatal("cacheless save accepted")
	}
	if err := noCache.LoadCaches(filepath.Join(dir, "x.bin")); err == nil {
		t.Fatal("cacheless load accepted")
	}
	eng := NewEngine(m, s, OptAll())
	if err := eng.LoadCaches(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Architecture mismatch: 3-layer snapshot into 2-layer engine.
	cfg := engineTestConfig()
	cfg.Layers = 3
	m3, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewEngine(m3, graphSampler(ds, cfg), OptAll())
	edges := ds.Graph.Edges()[:50]
	ns := make([]int32, 2*len(edges))
	tts := make([]float64, 2*len(edges))
	for i, e := range edges {
		ns[i], ns[len(edges)+i] = e.Src, e.Dst
		tts[i], tts[len(edges)+i] = e.Time, e.Time
	}
	s3.Embed(ns, tts)
	path := filepath.Join(dir, "l3.bin")
	if err := s3.SaveCaches(path); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadCaches(path); err == nil {
		t.Fatal("layer mismatch accepted")
	}
}

func graphSampler(ds *dataset.Dataset, cfg tgat.Config) *graph.Sampler {
	return graph.NewSampler(ds.Graph, cfg.NumNeighbors, graph.MostRecent, 0)
}

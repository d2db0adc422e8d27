package core

import (
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// swapTestModel builds the small deterministic fixture; seed varies the
// parameter init over identical feature tables, so two seeds model two
// published versions of the same architecture.
func swapTestModel(t *testing.T, seed uint64) *tgat.Model {
	t.Helper()
	const nodes, maxEdges, d = 24, 4096, 16
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, nodes+1, d)
	edgeFeat := tensor.Randn(r, maxEdges+1, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 4, Seed: seed}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// swapTestModelAt is swapTestModel carrying the given params version,
// set the only way a version is ever set: by building a model over a
// staged checkpoint (here the model's own parameters) as that version.
func swapTestModelAt(t *testing.T, seed, version uint64) *tgat.Model {
	t.Helper()
	m := swapTestModel(t, seed)
	path := filepath.Join(t.TempDir(), "params.tgp")
	if err := m.SaveParamsFS(checkpoint.OS{}, path); err != nil {
		t.Fatal(err)
	}
	sp, err := m.ParseParamsFS(checkpoint.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	return m.WithParams(sp, version)
}

func swapTestDyn(t *testing.T, n int) *graph.Dynamic {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dyn := graph.NewDynamic(24)
	for i := 0; i < n; i++ {
		e := graph.Edge{
			Src:  int32(1 + rng.Intn(23)),
			Dst:  int32(1 + rng.Intn(23)),
			Time: float64(10 * (i + 1)),
		}
		if _, _, err := dyn.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

func swapTestEngine(t *testing.T, m *tgat.Model, opt Options) *Engine {
	t.Helper()
	dyn := swapTestDyn(t, 60)
	sampler := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	return NewEngine(m, sampler, opt)
}

// TestEngineSwapBitwiseEquivalence pins the hot-swap contract on one
// graph: the engine a swap builds over the staged parameters
// (tgat.Model.WithParams, then NewEngine over the same sampler) answers
// bitwise what an engine over a model initialized to those parameters
// does — no stale memo, no stale precomputed time table, no stale pack.
func TestEngineSwapBitwiseEquivalence(t *testing.T) {
	t.Run("float32", func(t *testing.T) {
		opt := OptAll()
		opt.TimeWindow = 10_000

		mA := swapTestModel(t, 2)
		eng := swapTestEngine(t, mA, opt)

		nodes := []int32{1, 5, 3, 1, 9, 12}
		ts := []float64{1000, 1000, 1000, 900, 1000, 1000}
		eng.Embed(nodes, ts) // warm the memo cache under version 0
		eng.Embed(nodes, ts)
		if eng.CacheLen() == 0 {
			t.Fatal("cache did not warm")
		}
		if eng.ParamsVersion() != 0 {
			t.Fatalf("boot version %d", eng.ParamsVersion())
		}

		// Publish version-B params through a checkpoint file, the way
		// the serving loop does.
		dir := t.TempDir()
		path := filepath.Join(dir, "params.tgp")
		if err := swapTestModel(t, 9).SaveParamsFS(checkpoint.OS{}, path); err != nil {
			t.Fatal(err)
		}
		sp, err := mA.ParseParamsFS(checkpoint.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		eng = NewEngine(mA.WithParams(sp, 1), eng.sampler, opt)
		if eng.ParamsVersion() != 1 {
			t.Fatalf("version after swap: %d", eng.ParamsVersion())
		}

		got := eng.Embed(nodes, ts)
		ref := swapTestEngine(t, swapTestModel(t, 9), opt)
		want := ref.Embed(nodes, ts)
		for i := range nodes {
			for j := 0; j < mA.Cfg.NodeDim; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("row %d col %d: swapped %v vs fresh %v", i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
		// The score head's held pack follows the swap too: scores over
		// the same rows are the fresh engine's, bit for bit.
		d := mA.Cfg.NodeDim
		half := func(h *tensor.Tensor, i int) *tensor.Tensor { return tensor.FromSlice(h.Data()[i*3*d:(i+1)*3*d], 3, d) }
		gotScore := eng.ScoreWith(nil, half(got, 0), half(got, 1))
		wantScore := ref.ScoreWith(nil, half(want, 0), half(want, 1))
		for i, v := range gotScore.Data() {
			if math.Float32bits(v) != math.Float32bits(wantScore.Data()[i]) {
				t.Fatalf("score %d: swapped %v vs fresh %v", i, v, wantScore.Data()[i])
			}
		}
		// The swap emptied the memo state, not disabled it: the
		// post-swap pass re-warmed it, so an identical repeat is
		// answered by the top-layer memo and a repeat at a later time
		// — which the memo cannot answer — hits the layer-1 cache.
		memoHits := eng.TopMemoStats().Hits
		if eng.Embed(nodes, ts); eng.TopMemoStats().Hits == memoHits {
			t.Fatal("identical repeat Embed after the swap missed the top-layer memo")
		}
		later := make([]float64, len(ts))
		for i := range ts {
			later[i] = ts[i] + 1
		}
		hits := eng.CacheStats().Hits
		if eng.Embed(nodes, later); eng.CacheStats().Hits == hits {
			t.Fatal("repeat Embed after the swap missed the re-warmed cache")
		}
	})
}

// TestCacheSnapshotVersionStamp pins the snapshot side: a cache
// snapshot is valid for the parameters that computed its entries, not
// for their version label. The same parameters under another label
// load; other parameters under the same label are refused (cold start,
// never silent staleness).
func TestCacheSnapshotVersionStamp(t *testing.T) {
	opt := OptAll()
	eng := swapTestEngine(t, swapTestModelAt(t, 2, 3), opt)
	if eng.ParamsVersion() != 3 {
		t.Fatalf("engine over a v3 model serves v%d", eng.ParamsVersion())
	}
	nodes := []int32{1, 5, 3}
	ts := []float64{1000, 1000, 1000}
	eng.Embed(nodes, ts)
	if eng.CacheLen() == 0 {
		t.Fatal("cache did not warm")
	}
	path := filepath.Join(t.TempDir(), "caches.tgc")
	if err := eng.SaveCachesFS(checkpoint.OS{}, path); err != nil {
		t.Fatal(err)
	}

	for _, version := range []uint64{3, 4} {
		same := swapTestEngine(t, swapTestModelAt(t, 2, version), opt)
		if err := same.LoadCachesFS(checkpoint.OS{}, path); err != nil {
			t.Fatalf("same parameters labelled v%d: %v", version, err)
		}
		if same.CacheLen() != eng.CacheLen() {
			t.Fatalf("same parameters labelled v%d loaded %d of %d entries", version, same.CacheLen(), eng.CacheLen())
		}
	}

	other := swapTestEngine(t, swapTestModelAt(t, 5, 3), opt)
	err := other.LoadCachesFS(checkpoint.OS{}, path)
	if err == nil {
		t.Fatal("snapshot accepted by an engine over other parameters labelled v3")
	}
	if !strings.Contains(err.Error(), "parameters") {
		t.Fatalf("unexpected error: %v", err)
	}
	if other.CacheLen() != 0 {
		t.Fatalf("refused load still populated %d entries", other.CacheLen())
	}
}

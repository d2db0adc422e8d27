package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// topMemoFixture is one model over one live graph with two engines that
// differ only in the memo: ref has it removed, so whatever ref returns
// is the recompute the memo'd engine must match bit for bit.
type topMemoFixture struct {
	m        *tgat.Model
	dyn      *graph.Dynamic
	eng, ref *Engine
	now      float64
	nextIdx  int32
}

const topMemoNodes = 30

func newTopMemoFixture(t *testing.T, layers int) *topMemoFixture {
	t.Helper()
	r := tensor.NewRNG(17)
	const edges, d = 400, 16
	nodeFeat := tensor.Randn(r, topMemoNodes+1, d)
	edgeFeat := tensor.Randn(r, 4096, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: layers, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 4, Seed: 3}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(topMemoNodes)
	dyn.SetLateness(500)
	f := &topMemoFixture{m: m, dyn: dyn, nextIdx: 1}
	// Integral times: core.Key is exact on them, so the lower caches are
	// and the engine equals the baseline bit for bit.
	for i := 0; i < edges; i++ {
		f.now += float64(1 + r.Intn(9))
		src, dst := int32(1+r.Intn(topMemoNodes)), int32(1+r.Intn(topMemoNodes))
		if _, err := dyn.Append(graph.Edge{Src: src, Dst: dst, Time: f.now, Idx: f.nextIdx}); err != nil {
			t.Fatal(err)
		}
		f.nextIdx++
	}
	f.eng = NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())
	f.ref = NewEngine(m, graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0), OptAll())
	if f.eng.topMemo == nil {
		t.Fatal("live-graph engine built without a top-layer memo")
	}
	f.ref.topMemo = nil
	return f
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestTopMemoSlotCollisionEvicts: two targets that map to one slot
// evict each other and are never served each other's row.
func TestTopMemoSlotCollisionEvicts(t *testing.T) {
	f := newTopMemoFixture(t, 2)
	na, ta := int32(3), f.now
	slot := topMemoSlotOf(na, math.Float64bits(ta))
	nb, tb := int32(0), 0.0
search:
	for dt := 1.0; dt < 4096; dt++ {
		for v := int32(1); v <= topMemoNodes; v++ {
			if topMemoSlotOf(v, math.Float64bits(ta+dt)) == slot {
				nb, tb = v, ta+dt
				break search
			}
		}
	}
	if nb == 0 {
		t.Fatal("no colliding target found")
	}
	ask := func(v int32, tm float64, wantHit int64) {
		t.Helper()
		before := f.eng.TopMemoStats().Hits
		got := f.eng.Embed([]int32{v}, []float64{tm})
		if hit := f.eng.TopMemoStats().Hits - before; hit != wantHit {
			t.Fatalf("⟨%d, %v⟩: %d hits, want %d", v, tm, hit, wantHit)
		}
		if want := f.ref.Embed([]int32{v}, []float64{tm}); !sameBits(got, want) {
			t.Fatalf("⟨%d, %v⟩ answered with a row that is not its own", v, tm)
		}
	}
	ask(na, ta, 0)
	ask(na, ta, 1)
	ask(nb, tb, 0) // evicts a
	ask(nb, tb, 1)
	ask(na, ta, 0) // evicted, recomputed, evicts b
	ask(nb, tb, 0)
}

// TestTopMemoStraddlingPassStoresNothing parks a pass between its memo
// lookup and its store — on the layer-1 cache's shard locks, which the
// recursion needs next — moves the memo epoch, and lets it finish: the
// table must come out byte for byte as it went in. The move is an
// invalidation at or past every embedded time, the fast path, which
// writes nothing and still ends with the bump; a graph write cannot
// straddle a pass, since the pass holds the graph's write gate.
func TestTopMemoStraddlingPassStoresNothing(t *testing.T) {
	t.Run("epoch", func(t *testing.T) {
		f := newTopMemoFixture(t, 2)
		f.eng.Embed([]int32{1, 2}, []float64{f.now, f.now}) // something to preserve
		memo := f.eng.topMemo
		slots := append([]topMemoSlot(nil), memo.slots...)
		rows := append([]float32(nil), memo.rows...)
		before := f.eng.TopMemoStats()

		l1 := f.eng.caches[1]
		for i := range l1.shards {
			l1.shards[i].mu.Lock()
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.eng.Embed([]int32{3, 4, 5}, []float64{f.now, f.now, f.now})
		}()
		// The lookup counter moves after the pass has read its epoch.
		for f.eng.TopMemoStats().Lookups == before.Lookups {
			runtime.Gosched()
		}
		f.eng.InvalidateEdge(9, 10, f.now+5)
		for i := range l1.shards {
			l1.shards[i].mu.Unlock()
		}
		<-done

		if after := f.eng.TopMemoStats(); after.Stores != before.Stores {
			t.Fatalf("straddling pass: stores %d→%d", before.Stores, after.Stores)
		}
		for i := range slots {
			if memo.slots[i] != slots[i] {
				t.Fatalf("slot %d rewritten by a pass whose epoch moved", i)
			}
		}
		for i := range rows {
			if math.Float32bits(memo.rows[i]) != math.Float32bits(rows[i]) {
				t.Fatalf("row data rewritten at %d by a pass whose epoch moved", i)
			}
		}
	})
}

// TestTopMemoAbsentOnStaticSampler: stream, experiment and tgopt-infer
// engines sample an immutable graph and must not grow a memo.
func TestTopMemoAbsentOnStaticSampler(t *testing.T) {
	_, m, s := engineTestSetup(t, 300)
	eng := NewEngine(m, s, OptAll())
	nodes, ts := []int32{1, 2, 26}, []float64{4e4, 3e4, 4.5e4}
	eng.Embed(nodes, ts)
	eng.Embed(nodes, ts)
	if eng.topMemo != nil || eng.TopMemoStats() != (TopMemoStats{}) {
		t.Fatalf("static-sampler engine has a top-layer memo: %+v", eng.TopMemoStats())
	}
}

// TestTopMemoStressReadersAndWriters: at L = 3, two writers ingest
// in-order and late edges, each edge and its invalidation under the
// graph's write gate, while four readers re-ask a Zipf-weighted
// 64-target pool at a moving "now". Once the writers stop, every
// target's answer — first ask and memo hit — must equal the baseline on
// the final graph, and so must every resident layer-1 and layer-2 row.
func TestTopMemoStressReadersAndWriters(t *testing.T) {
	f := newTopMemoFixture(t, 3)
	eng := f.eng
	const pool, perWriter = 64, 120
	targets := make([]int32, pool)
	for i := range targets {
		targets[i] = int32(1 + i%topMemoNodes)
	}
	var clock atomic.Int64 // the moving "now"; times stay integral
	clock.Store(int64(f.now))
	var idx atomic.Int32
	idx.Store(f.nextIdx)
	var writersDone atomic.Bool

	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			r := rand.New(rand.NewSource(int64(100 + w)))
			gate := f.dyn.Gate()
			for i := 0; i < perWriter; i++ {
				tm := float64(clock.Add(int64(1 + r.Intn(3))))
				if i%3 == 2 {
					tm -= float64(10 + r.Intn(200)) // late, inside the window
				}
				src, dst := int32(1+r.Intn(topMemoNodes)), int32(1+r.Intn(topMemoNodes))
				gate.Lock()
				res, _, err := f.dyn.Ingest(graph.Edge{Src: src, Dst: dst, Time: tm, Idx: idx.Add(1)})
				if err == nil && res != graph.IngestDropped {
					eng.InvalidateEdge(src, dst, tm)
				}
				gate.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			r := rand.New(rand.NewSource(int64(200 + rd)))
			zipf := rand.NewZipf(r, 1.2, 1, pool-1)
			nodes, ts := make([]int32, 8), make([]float64, 8)
			for asks := 0; asks < 50 || !writersDone.Load(); asks++ {
				now := float64(clock.Load())
				for i := range nodes {
					nodes[i], ts[i] = targets[zipf.Uint64()], now
				}
				eng.Embed(nodes, ts)
			}
		}()
	}
	writers.Wait()
	writersDone.Store(true)
	readers.Wait()

	now := float64(clock.Load())
	s := graph.NewDynamicSampler(f.dyn, f.m.Cfg.NumNeighbors, graph.MostRecent, 0)
	base := f.m.BaselineEmbedFunc(s)
	for _, v := range targets {
		ns, ts := []int32{v}, []float64{now}
		want := base(ns, ts)
		if got := eng.Embed(ns, ts); !sameBits(got, want) {
			t.Fatalf("node %d at the final now: first answer after the writers stopped differs from the baseline", v)
		}
		hits := eng.TopMemoStats().Hits
		if got := eng.Embed(ns, ts); !sameBits(got, want) || eng.TopMemoStats().Hits != hits+1 {
			t.Fatalf("node %d at the final now: re-ask was not a baseline-exact memo hit", v)
		}
	}
	// A fresh engine without caches computes each level from scratch.
	fresh := NewEngine(f.m, s, Options{})
	for l := 1; l <= 2; l++ {
		c := eng.CacheFor(l)
		keys := c.Keys()
		if len(keys) == 0 {
			t.Fatalf("layer %d holds no row after the stress run", l)
		}
		got := tensor.New(len(keys), f.m.Cfg.NodeDim)
		if _, n := c.Lookup(keys, got); n != len(keys) {
			t.Fatalf("layer %d: %d of %d resident rows looked up", l, n, len(keys))
		}
		nodes, ts := make([]int32, len(keys)), make([]float64, len(keys))
		for i, key := range keys {
			nodes[i], ts[i] = int32(key>>32), float64(uint32(key))
		}
		if !sameBits(got, fresh.embed(nil, l, nodes, ts).Data) {
			t.Fatalf("layer %d: a resident row differs from its recompute on the final graph", l)
		}
	}
	st := eng.TopMemoStats()
	if st.Hits == 0 || st.Stores == 0 {
		t.Fatalf("stress run never exercised the memo: %+v", st)
	}
	t.Logf("memo under stress: %+v", st)
}

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
// recursion needs next — moves the stamp, and lets it finish: the table
// must come out byte for byte as it went in.
func TestTopMemoStraddlingPassStoresNothing(t *testing.T) {
	for _, move := range []string{"graph", "epoch"} {
		t.Run(move, func(t *testing.T) {
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
			nodes, ts := []int32{3, 4, 5}, []float64{f.now, f.now, f.now}
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.eng.Embed(nodes, ts)
			}()
			// The lookup counter moves after the pass has read its stamp.
			for f.eng.TopMemoStats().Lookups == before.Lookups {
				runtime.Gosched()
			}
			switch move {
			case "graph":
				if _, err := f.dyn.Append(graph.Edge{Src: 9, Dst: 10, Time: f.now + 5, Idx: f.nextIdx}); err != nil {
					t.Fatal(err)
				}
			case "epoch":
				// At or past every embedded time: the fast path, which
				// touches no cache lock and still ends with the bump.
				f.eng.InvalidateEdge(9, 10, f.now+5)
			}
			for i := range l1.shards {
				l1.shards[i].mu.Unlock()
			}
			<-done

			after := f.eng.TopMemoStats()
			if after.Stores != before.Stores || after.StaleSkips-before.StaleSkips != int64(len(nodes)) {
				t.Fatalf("straddling pass: stores %d→%d, stale skips %d→%d", before.Stores, after.Stores, before.StaleSkips, after.StaleSkips)
			}
			for i := range slots {
				if memo.slots[i] != slots[i] {
					t.Fatalf("slot %d rewritten by a pass whose stamp moved", i)
				}
			}
			for i := range rows {
				if math.Float32bits(memo.rows[i]) != math.Float32bits(rows[i]) {
					t.Fatalf("row data rewritten at %d by a pass whose stamp moved", i)
				}
			}
		})
	}
}

// TestTransitiveRollbackBuildsNoLayer2Entry: at L = 3, a layer-2 pass
// aggregates the layer-1 rows its recursion computed. Park that
// recursion after its layer-1 store and before its index records land
// (on the layer-1 target index's locks), move the graph, and let it
// finish: the layer-1 store rolls back, and the layer-2 entries built
// from its rows must not be stored either. They are not, because the
// layer-2 fence opened before the recursion's and the graph's counters
// only grow, so the move the inner check saw is one the outer check sees.
// No invalidation scan runs, so any surviving entry would be served.
func TestTransitiveRollbackBuildsNoLayer2Entry(t *testing.T) {
	for _, move := range []string{"append", "late"} {
		t.Run(move, func(t *testing.T) {
			f := newTopMemoFixture(t, 3)
			f.eng.Embed([]int32{1, 2}, []float64{f.now, f.now}) // something to keep
			l1, l2 := f.eng.caches[1], f.eng.caches[2]
			len1, len2 := l1.Len(), l2.Len()
			skips := f.eng.staleSkips.Load()

			tix := f.eng.layerTargets[1]
			for i := range tix.shards {
				tix.shards[i].mu.Lock()
			}
			// Ahead of the clock, so the append below lands in their windows.
			nodes, ts := []int32{3, 4, 5}, []float64{f.now + 100, f.now + 100, f.now + 100}
			done := make(chan struct{})
			go func() {
				defer close(done)
				f.eng.Embed(nodes, ts)
			}()
			for l1.Len() == len1 { // stored, now blocked on the index
				runtime.Gosched()
			}
			var err error
			switch move {
			case "append":
				_, err = f.dyn.Append(graph.Edge{Src: 3, Dst: 4, Time: f.now + 5, Idx: f.nextIdx})
			case "late":
				var res graph.IngestResult
				res, _, err = f.dyn.Ingest(graph.Edge{Src: 3, Dst: 4, Time: f.now - 10, Idx: f.nextIdx})
				if err == nil && res != graph.IngestLate {
					t.Fatalf("late insert classified %v", res)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			f.nextIdx++
			for i := range tix.shards {
				tix.shards[i].mu.Unlock()
			}
			<-done

			if l1.Len() != len1 {
				t.Fatalf("layer 1 holds %d entries after the rollback, want %d", l1.Len(), len1)
			}
			if l2.Len() != len2 {
				t.Fatalf("layer 2 holds %d entries built from rolled-back rows, want %d", l2.Len(), len2)
			}
			if got := f.eng.staleSkips.Load() - skips; got != 2 {
				t.Fatalf("%d stale skips, want 2 (the layer-1 rollback and the layer-2 skip)", got)
			}
			s := graph.NewDynamicSampler(f.dyn, f.m.Cfg.NumNeighbors, graph.MostRecent, 0)
			if got, want := f.eng.Embed(nodes, ts), f.m.BaselineEmbedFunc(s)(nodes, ts); !sameBits(got, want) {
				t.Fatal("re-ask after the rollback differs from the baseline on the current graph")
			}
		})
	}
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

// TestTopMemoStressReadersAndWriters: two writers ingest in-order and
// late edges while four readers re-ask a Zipf-weighted 64-target pool at
// a moving "now". Once the writers stop, every target's answer — first
// ask and memo hit — must equal the baseline on the final graph.
func TestTopMemoStressReadersAndWriters(t *testing.T) {
	f := newTopMemoFixture(t, 2)
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
			for i := 0; i < perWriter; i++ {
				tm := float64(clock.Add(int64(1 + r.Intn(3))))
				if i%3 == 2 {
					tm -= float64(10 + r.Intn(200)) // late, inside the window
				}
				src, dst := int32(1+r.Intn(topMemoNodes)), int32(1+r.Intn(topMemoNodes))
				res, _, err := f.dyn.Ingest(graph.Edge{Src: src, Dst: dst, Time: tm, Idx: idx.Add(1)})
				if err != nil {
					t.Error(err)
					return
				}
				if res != graph.IngestDropped {
					eng.InvalidateEdge(src, dst, tm)
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
	st := eng.TopMemoStats()
	if st.Hits == 0 || st.Stores == 0 {
		t.Fatalf("stress run never exercised the memo: %+v", st)
	}
	t.Logf("memo under stress: %+v", st)
}

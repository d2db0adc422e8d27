package shard

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

const (
	testNodes = 24
	testDim   = 16
)

// testModel builds the deterministic small model shared by every shard
// test (same shape as the serve package's fixture).
func testModel(t *testing.T) *tgat.Model {
	t.Helper()
	const maxEdges = 4096
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, testNodes+1, testDim)
	edgeFeat := tensor.Randn(r, maxEdges+1, testDim)
	for j := 0; j < testDim; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: testDim, EdgeDim: testDim, TimeDim: testDim, NumNeighbors: 4, Seed: 2}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testEdges is a deterministic chronological workload.
func testEdges(n int) []graph.Edge {
	rng := rand.New(rand.NewSource(7))
	edges := make([]graph.Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{
			Src:  int32(1 + rng.Intn(testNodes-1)),
			Dst:  int32(1 + rng.Intn(testNodes-1)),
			Time: float64(10 * (i + 1)),
		})
	}
	return edges
}

// seededDynamic returns a dynamic graph pre-loaded with edges.
func seededDynamic(t *testing.T, edges []graph.Edge) *graph.Dynamic {
	t.Helper()
	dyn := graph.NewDynamic(testNodes)
	for _, e := range edges {
		if _, _, err := dyn.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

// referenceSlab computes the ground-truth embedding slab on a plain
// unsharded engine over the same stream.
func referenceSlab(t *testing.T, m *tgat.Model, edges []graph.Edge, nodes []int32, ts []float64) []float32 {
	t.Helper()
	dyn := seededDynamic(t, edges)
	sampler := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	eng := core.NewEngine(m, sampler, core.OptAll())
	h := eng.Embed(nodes, ts)
	out := make([]float32, len(nodes)*m.Cfg.NodeDim)
	copy(out, h.Data()[:len(out)])
	return out
}

// lateGraph is seededDynamic with a lateness window of 100.
func lateGraph(t *testing.T, edges []graph.Edge) *graph.Dynamic {
	t.Helper()
	dyn := graph.NewDynamic(testNodes)
	dyn.SetLateness(100)
	for _, e := range edges {
		if _, _, err := dyn.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

// ingest is /v1/ingest's write: under the graph's write gate, the
// router's graph takes e, then Apply runs its invalidation on every
// live shard. It returns how many memo entries that dropped. A failed
// ingest is reported with t.Error, so the helper is safe on a goroutine
// other than the test's.
func ingest(t *testing.T, r *Router, e graph.Edge) int {
	t.Helper()
	gate := r.dyn.Gate()
	gate.Lock()
	defer gate.Unlock()
	res, _, err := r.dyn.Ingest(e)
	if err != nil {
		t.Error(err)
		return 0
	}
	return r.Apply(e, res)
}

func newTestRouter(t *testing.T, m *tgat.Model, edges []graph.Edge, cfg Config) *Router {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	r, err := NewRouter(m, seededDynamic(t, edges), core.OptAll(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func poolSlab(t *testing.T, r *Router, nodes []int32, ts []float64) []float32 {
	t.Helper()
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("degraded rows %v", res.Degraded)
	}
	return res.Slab
}

func requireSlabEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slab[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// poolTopMemoStats sums the top-layer memo counters over the pool's
// live engines, as the serving layer does per scrape.
func poolTopMemoStats(r *Router) core.TopMemoStats {
	var agg core.TopMemoStats
	for _, e := range r.Engines() {
		agg.Add(e.TopMemoStats())
	}
	return agg
}

// embedQuery is a mixed query batch with duplicates and repeated nodes
// at different times, exercising gather ordering.
func embedQuery() ([]int32, []float64) {
	nodes := []int32{1, 5, 3, 1, 9, 12, 5, 1, 17, 3, 20, 7}
	ts := make([]float64, len(nodes))
	for i := range ts {
		ts[i] = 1000
	}
	// Two targets at a distinct time: same node, different memo key.
	ts[3] = 900
	ts[7] = 900
	return nodes, ts
}

// TestRouterMatchesUnshardedBitwise pins the core contract: a scatter-
// gathered embed equals a single-engine embed bit for bit, rows in
// exact input order, duplicates included.
func TestRouterMatchesUnshardedBitwise(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	for _, shards := range []int{2, 4, 7} {
		r := newTestRouter(t, m, edges, Config{Shards: shards})
		res, err := r.Embed(context.Background(), nodes, ts)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Partial || len(res.Degraded) != 0 {
			t.Fatalf("shards=%d: unexpected degradation %v", shards, res.Degraded)
		}
		for i := range want {
			if res.Slab[i] != want[i] {
				t.Fatalf("shards=%d: slab[%d] = %v, want %v (not bitwise identical)", shards, i, res.Slab[i], want[i])
			}
		}
	}
}

// TestRouterIngestInvalidatesEveryShard pins that Apply keeps every
// shard's caches exact: embeddings after an append match a reference
// engine that saw the same stream.
func TestRouterIngestInvalidatesEveryShard(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40)
	r := newTestRouter(t, m, edges, Config{Shards: 3})

	nodes, ts := embedQuery()
	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err) // warm the memo caches so invalidation has work
	}

	// Append edges that land inside the queried windows.
	extra := []graph.Edge{
		{Src: 1, Dst: 5, Time: 850},
		{Src: 3, Dst: 9, Time: 950},
	}
	invalidated := 0
	for _, e := range extra {
		invalidated += ingest(t, r, e)
	}
	if invalidated == 0 {
		t.Fatal("appends under the asked times invalidated nothing")
	}
	all := append(append([]graph.Edge(nil), edges...), extra...)
	want := referenceSlab(t, m, all, nodes, ts)
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("post-ingest slab[%d] = %v, want %v", i, res.Slab[i], want[i])
		}
	}
}

// panicEmbedder wraps a shard's engine and panics while armed.
type panicEmbedder struct {
	core.Embedder
	armed func() bool
}

func (p *panicEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if p.armed() {
		panic("injected shard fault")
	}
	return p.Embedder.EmbedWith(ar, nodes, ts)
}

// TestRouterDegradedPartial pins the partial-response contract: with
// fallbacks also broken, a dead primary degrades exactly its own rows
// and leaves every other row bitwise intact.
func TestRouterDegradedPartial(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	// Every shard faulty: any leg (primary or fallback) panics while
	// armed, so the affected group degrades rather than failing over.
	var armed atomic.Bool
	r := newTestRouter(t, m, edges, Config{
		Shards: 4,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &panicEmbedder{Embedder: e, armed: armed.Load}
		},
	})

	badShard := r.Owner(nodes[0])
	var badRows, goodRows []int
	for i, v := range nodes {
		if r.Owner(v) == badShard {
			badRows = append(badRows, i)
		} else {
			goodRows = append(goodRows, i)
		}
	}
	if len(goodRows) == 0 {
		t.Fatal("fixture has no rows outside the faulty shard")
	}

	armed.Store(true)
	res, err := r.Embed(context.Background(), nodes, ts)
	armed.Store(false)
	if err != nil {
		t.Fatalf("degraded request must not fail whole: %v", err)
	}
	if !res.Partial {
		t.Fatal("expected a partial response")
	}
	degraded := map[int]bool{}
	for _, i := range res.Degraded {
		degraded[i] = true
	}
	for _, i := range badRows {
		if !degraded[i] {
			t.Fatalf("row %d (shard %d) should be degraded; got %v", i, badShard, res.Degraded)
		}
	}
	d := r.Dim()
	for _, i := range goodRows {
		if degraded[i] {
			continue // its shard may have been tried as a fallback and failed too
		}
		for j := 0; j < d; j++ {
			if res.Slab[i*d+j] != want[i*d+j] {
				t.Fatalf("non-degraded row %d differs from reference at %d", i, j)
			}
		}
	}
	if st := r.Stats(); st.PartialResponses == 0 || st.DegradedTargets == 0 {
		t.Fatalf("partial counters not recorded: %+v", st)
	}
}

// TestRouterRoutesAroundCrashedOwner: a crashed owner's group goes to
// the next up shard, whose rows are bitwise the unsharded reference, and
// the diversion is counted in RoutedAround. With every shard crashed an
// embed and a snapshot fail with ErrNoShardUp.
func TestRouterRoutesAroundCrashedOwner(t *testing.T) {
	m := testModel(t)
	edges := testEdges(30)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)
	r := newTestRouter(t, m, edges, Config{Shards: 3, CacheFile: t.TempDir()})

	owner := r.Owner(nodes[0])
	next := (owner + 1) % 3
	r.shards[owner].core.crash()
	wantNextCalls := int64(1) // the owner's group
	if slices.ContainsFunc(nodes, func(v int32) bool { return r.Owner(v) == next }) {
		wantNextCalls++ // and its own
	}
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("embed around a crashed owner: err=%v partial=%v", err, res != nil && res.Partial)
	}
	requireSlabEqual(t, "routed around", res.Slab, want)
	st := r.Stats()
	if st.RoutedAround == 0 || st.Healthy != 2 {
		t.Fatalf("routed_around = %d, healthy = %d; want > 0 and 2", st.RoutedAround, st.Healthy)
	}
	if st.Shards[owner].Calls != 0 || st.Shards[next].Calls != wantNextCalls {
		t.Fatalf("calls: owner %d, next %d; want 0 and %d", st.Shards[owner].Calls, st.Shards[next].Calls, wantNextCalls)
	}

	for _, s := range r.shards {
		s.core.crash()
	}
	if _, err := r.Embed(context.Background(), nodes, ts); !errors.Is(err, ErrNoShardUp) {
		t.Fatalf("embed with no shard up: err = %v, want ErrNoShardUp", err)
	}
	if err := r.SaveSnapshot(); !errors.Is(err, ErrNoShardUp) {
		t.Fatalf("snapshot with no shard up: err = %v, want ErrNoShardUp", err)
	}
	if st := r.Stats(); st.SnapshotSaves != 0 || st.Healthy != 0 {
		t.Fatalf("snapshot saves = %d, healthy = %d; want 0 and 0", st.SnapshotSaves, st.Healthy)
	}
}

// slowEmbedder stalls while armed — for the deadline tests.
type slowEmbedder struct {
	core.Embedder
	delay func() time.Duration
}

func (s *slowEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if d := s.delay(); d > 0 {
		time.Sleep(d)
	}
	return s.Embedder.EmbedWith(ar, nodes, ts)
}

// TestRouterStalledOwnerDegrades: a shard that stalls past the leg
// budget degrades exactly its own rows to a partial response by the
// caller's deadline, and every other row is the reference's.
func TestRouterStalledOwnerDegrades(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	slowShard := -1
	r := newTestRouter(t, m, edges, Config{
		Shards: 3,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &slowEmbedder{Embedder: e, delay: func() time.Duration {
				if id == slowShard {
					return 2 * time.Second
				}
				return 0
			}}
		},
	})
	slowShard = r.Owner(nodes[0])

	const deadline = 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := r.Embed(ctx, nodes, ts)
	if elapsed := time.Since(start); elapsed > deadline {
		t.Fatalf("Embed took %v, past its %v deadline", elapsed, deadline)
	}
	if err != nil {
		t.Fatal(err)
	}
	var stalled []int
	for i, v := range nodes {
		if r.Owner(v) == slowShard {
			stalled = append(stalled, i)
		}
	}
	if !res.Partial || !slices.Equal(res.Degraded, stalled) {
		t.Fatalf("degraded = %v (partial %v), want the stalled shard's rows %v", res.Degraded, res.Partial, stalled)
	}
	d := r.Dim()
	for i := range nodes {
		if slices.Contains(stalled, i) {
			continue
		}
		if !slices.Equal(res.Slab[i*d:(i+1)*d], want[i*d:(i+1)*d]) {
			t.Fatalf("row %d differs from the reference", i)
		}
	}
	if st := r.Stats(); st.Shards[slowShard].Timeouts == 0 || st.Shards[slowShard].Crashed {
		t.Fatalf("stalled shard: %+v; want a timeout booked and the shard still up", st.Shards[slowShard])
	}
}

// CacheLen sums live memo entries across the pool.
func (r *Router) CacheLen() int {
	n := 0
	for _, eng := range r.Engines() {
		n += eng.CacheLen()
	}
	return n
}

// TestRouterSnapshotRoundTrip pins warm restarts: snapshots saved with
// the graph's watermark reload into a fresh router and serve bitwise-
// identical rows, with stale entries invalidated by replaying the edges
// at or past it.
func TestRouterSnapshotRoundTrip(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40)
	nodes, ts := embedQuery()
	dir := t.TempDir()

	r1 := newTestRouter(t, m, edges, Config{Shards: 3, CacheFile: dir})
	if _, err := r1.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	if err := r1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if r1.CacheLen() == 0 {
		t.Fatal("fixture produced no cached entries")
	}

	// A new router over the same stream plus two newer edges: the
	// snapshot predates them, so WarmStart must replay invalidation.
	extra := []graph.Edge{{Src: 1, Dst: 5, Time: 850}, {Src: 3, Dst: 9, Time: 950}}
	all := append(append([]graph.Edge(nil), edges...), extra...)
	r2 := newTestRouter(t, m, all, Config{Shards: 3, CacheFile: dir})
	if warmed, _ := r2.WarmStart(); warmed != 3 {
		t.Fatalf("warmed %d shards, want 3", warmed)
	}
	want := referenceSlab(t, m, all, nodes, ts)
	res, err := r2.Embed(context.Background(), nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("warm-started slab[%d] = %v, want %v", i, res.Slab[i], want[i])
		}
	}
}

// TestRouterSnapshotReplayBelowWatermark: the edges a warm start replays
// may predate the graph's watermark. Here an append touching v, then a
// late edge under v's asked times, then an append that moves the
// watermark past them all follow the snapshot; the restored entries the
// late edge displaced must still be dropped, whatever the append's
// replay retired.
func TestRouterSnapshotReplayBelowWatermark(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40) // times 10..400
	v := edges[len(edges)-1].Src
	w := v%testNodes + 1
	later := []graph.Edge{
		{Src: v, Dst: w, Time: 410},
		{Src: v, Dst: w, Time: 375},  // late: the watermark is 310
		{Src: w, Dst: w, Time: 1000}, // the watermark moves to 900
	}
	nodes, ts := []int32{v, v}, []float64{380, 390}
	dir := t.TempDir()
	fresh := func(edges []graph.Edge) []float32 {
		dyn := lateGraph(t, edges)
		return core.NewEngine(m, graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0), core.OptAll()).Embed(nodes, ts).Data()
	}
	router := func() *Router {
		r, err := NewRouter(m, lateGraph(t, edges), core.OptAll(), Config{Shards: 2, CacheFile: dir})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	r1 := router()
	if _, err := r1.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	if err := r1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	// A second process boots on the snapshot's stream, absorbs the later
	// edges in arrival order, and only then warm-starts.
	r2 := router()
	for _, e := range later {
		ingest(t, r2, e)
	}
	want := fresh(append(slices.Clone(edges), later...))
	if slices.Equal(want, fresh(edges)) {
		t.Fatal("the late edge changed no asked row: the test exercises no invalidation")
	}
	if warmed, _ := r2.WarmStart(); warmed != 2 {
		t.Fatalf("warmed %d shards, want 2", warmed)
	}
	res, err := r2.Embed(context.Background(), nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Slab, want) {
		t.Fatal("warm-started rows differ from a fresh engine's: a restored entry the late edge displaced survived")
	}
}

// TestRouterRestartReplaysFromWatermark pins the warm restart over the
// shared graph. After a snapshot, the graph takes a late edge and an
// append, each changing an asked row, and every live shard invalidates
// for them. Then the owner goes down, and a restart saves the live
// shards and builds a new router over the same graph, as the server
// does: the owner's core loads the pre-write snapshot, and only
// replaying the edges at or past the saved watermark makes its rows the
// reference's.
func TestRouterRestartReplaysFromWatermark(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40) // times 10..400
	for i := range edges {
		// Explicit ids, so the time-sorted reference stream gives every
		// edge the features it has in the router's arrival-order graph.
		edges[i].Idx = int32(i + 1)
	}
	v := edges[len(edges)-1].Src
	w := v%testNodes + 1
	late := graph.Edge{Src: v, Dst: w, Time: 375, Idx: 41} // the watermark is 300
	appended := graph.Edge{Src: w, Dst: v, Time: 410, Idx: 42}
	nodes, ts := []int32{v, v}, []float64{390, 420}
	sorted := func(extra ...graph.Edge) []graph.Edge {
		all := append(slices.Clone(edges), extra...)
		slices.SortStableFunc(all, func(a, b graph.Edge) int { return cmp.Compare(a.Time, b.Time) })
		return all
	}
	want := referenceSlab(t, m, sorted(late, appended), nodes, ts)
	for _, without := range [][]graph.Edge{sorted(appended), sorted(late)} {
		if slices.Equal(referenceSlab(t, m, without, nodes, ts), want) {
			t.Fatal("an ingested edge changed no asked row: the test exercises no replay")
		}
	}

	dir := t.TempDir()
	cfg := Config{Shards: 3, CacheFile: dir}
	dyn := lateGraph(t, edges)
	r, err := NewRouter(m, dyn, core.OptAll(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	poolSlab(t, r, nodes, ts) // warm
	if err := r.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ingest(t, r, late)
	ingest(t, r, appended)
	if n := dyn.LateAccepted(); n != 1 {
		t.Fatalf("graph accepted %d late edges, want 1", n)
	}

	owner := r.Owner(v)
	r.shards[owner].core.crash()
	if err := r.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	next, err := NewRouter(m, dyn, core.OptAll(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmed, err := next.WarmStart(); warmed != 3 || err != nil {
		t.Fatalf("warmed %d shards (err %v), want 3", warmed, err)
	}
	calls := next.shards[owner].calls.Load()
	got := poolSlab(t, next, nodes, ts)
	if next.shards[owner].calls.Load() == calls {
		t.Fatal("the rebuilt owner served no leg: the check below would not reach its caches")
	}
	if !slices.Equal(got, want) {
		t.Fatal("rows after the warm restart differ from the reference: a restored entry an ingested edge displaced survived")
	}
}

// TestRouterSnapshotRefusesUntrustedSidecar: a shard-N.tgc snapshot
// the engine cannot read as its own current format is a cold start
// counted in snapshot_errors, and the pool serves the reference rows.
// The cases are an older envelope version and bytes 8–16 overwritten
// where a version-4 payload kept its watermark (a NaN, a time past the
// clock); in a version-5 payload those bytes are the blob's magic and
// width.
func TestRouterSnapshotRefusesUntrustedSidecar(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)
	// Each case rewrites a saved snapshot's envelope: the payload is
	// the inputs digest (8 bytes), then the layer-1 blob.
	for _, tc := range []struct {
		name  string
		craft func(version uint32, payload []byte) (uint32, []byte)
	}{
		{"version-3", func(_ uint32, p []byte) (uint32, []byte) {
			return 3, append(slices.Clone(p[:8]), p[16:]...)
		}},
		{"nan", func(v uint32, p []byte) (uint32, []byte) {
			binary.LittleEndian.PutUint64(p[8:16], math.Float64bits(math.NaN()))
			return v, p
		}},
		{"past-the-clock", func(v uint32, p []byte) (uint32, []byte) {
			binary.LittleEndian.PutUint64(p[8:16], math.Float64bits(1e9))
			return v, p
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := newTestRouter(t, m, edges, Config{Shards: 2, CacheFile: dir})
			poolSlab(t, r1, nodes, ts)
			if err := r1.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			for i := range r1.shards {
				path := r1.snapshotPath(i)
				var version uint32
				var payload []byte
				err := checkpoint.ReadFS(checkpoint.OS{}, path, func(v uint32, r io.Reader) (err error) {
					version = v
					payload, err = io.ReadAll(r)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				version, payload = tc.craft(version, payload)
				err = checkpoint.WriteFS(checkpoint.OS{}, path, version, func(w io.Writer) error {
					_, err := w.Write(payload)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			r2 := newTestRouter(t, m, edges, Config{Shards: 2, CacheFile: dir})
			if warmed, err := r2.WarmStart(); warmed != 0 || !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("WarmStart = %d, %v; want 0 shards and a cold start", warmed, err)
			}
			if st := r2.Stats(); st.SnapshotLoads != 0 || st.SnapshotErrors != 2 {
				t.Fatalf("snapshot loads = %d, errors = %d; want 0 and 2", st.SnapshotLoads, st.SnapshotErrors)
			}
			if n := r2.CacheLen(); n != 0 {
				t.Fatalf("%d entries resident after a refused warm start", n)
			}
			requireSlabEqual(t, "cold start", poolSlab(t, r2, nodes, ts), want)
		})
	}
}

// TestRouterDeadlineNeverHangs pins the no-hang guarantee: with every
// shard stalled well past the deadline, Embed returns by the deadline
// (plus scheduling slack), not when the shards do.
func TestRouterDeadlineNeverHangs(t *testing.T) {
	m := testModel(t)
	edges := testEdges(30)
	r := newTestRouter(t, m, edges, Config{
		Shards: 2,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &slowEmbedder{Embedder: e, delay: func() time.Duration { return 2 * time.Second }}
		},
	})
	nodes, ts := embedQuery()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := r.Embed(ctx, nodes, ts)
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("Embed hung %v past a 100ms deadline", elapsed)
	}
	// Legs time out at 90% of the budget, so the request either
	// degrades every row or (if the caller's own deadline won the
	// race) fails with a context error — it never blocks on the
	// stalled shards.
	if err == nil && !res.Partial {
		t.Fatal("stalled shards produced a clean full response")
	}
}

// TestRouterTopMemoAcrossShards: every shard engine keeps its own
// top-layer memo, the router sums their counters, a request whose
// targets all hash to one shard (the leg the caller's goroutine runs
// itself) is answered from that shard's memo alone, and a write leaves
// no shard serving a pre-write row.
func TestRouterTopMemoAcrossShards(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	r := newTestRouter(t, m, edges, Config{Shards: 3})
	ctx := context.Background()
	sameSlab := func(label string, got, want []float32) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: slab[%d] = %v, want %v", label, i, got[i], want[i])
			}
		}
	}

	nodes, ts := embedQuery() // 12 targets, 9 distinct ⟨node, t⟩
	want := referenceSlab(t, m, edges, nodes, ts)
	for _, label := range []string{"first ask", "re-ask"} {
		res, err := r.Embed(ctx, nodes, ts)
		if err != nil {
			t.Fatal(err)
		}
		sameSlab(label, res.Slab, want)
	}
	if st := poolTopMemoStats(r); st.Lookups != 18 || st.Hits != 9 || st.Stores != 9 {
		t.Fatalf("pool-wide memo counters after ask + re-ask: %+v", st)
	}

	// One shard's nodes only.
	owner := r.Owner(nodes[0])
	var one []int32
	for v := int32(1); v < testNodes; v++ {
		if r.Owner(v) == owner {
			one = append(one, v)
		}
	}
	oneTs := make([]float64, len(one))
	for i := range oneTs {
		oneTs[i] = 700
	}
	wantOne := referenceSlab(t, m, edges, one, oneTs)
	before := make([]core.TopMemoStats, 0, 3)
	for _, e := range r.Engines() {
		before = append(before, e.TopMemoStats())
	}
	for _, label := range []string{"single-shard ask", "single-shard re-ask"} {
		res, err := r.Embed(ctx, one, oneTs)
		if err != nil || res.Partial {
			t.Fatalf("%s: err=%v partial=%v", label, err, res != nil && res.Partial)
		}
		sameSlab(label, res.Slab, wantOne)
	}
	for i, e := range r.Engines() {
		want := int64(0)
		if i == owner {
			want = int64(2 * len(one))
		}
		if d := e.TopMemoStats().Lookups - before[i].Lookups; d != want {
			t.Fatalf("shard %d saw %d memo lookups, want %d (the request's one owner is shard %d)", i, d, want, owner)
		}
	}

	// An append under the asked time: no shard may answer the next ask
	// from its memo, and the answer is the post-write one.
	extra := graph.Edge{Src: 1, Dst: 5, Time: 850}
	ingest(t, r, extra)
	hits := poolTopMemoStats(r).Hits
	res, err := r.Embed(ctx, nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	sameSlab("after the write", res.Slab, referenceSlab(t, m, append(append([]graph.Edge(nil), edges...), extra), nodes, ts))
	if got := poolTopMemoStats(r).Hits - hits; got != 0 {
		t.Fatalf("first ask after a write hit %d memo rows", got)
	}
}

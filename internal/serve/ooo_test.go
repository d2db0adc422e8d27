package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// oooModel builds the shared model for the equivalence pair: both
// servers must run identical parameters so any divergence is ingestion
// order, not weights.
func oooModel(t *testing.T, nodes, maxEdges, d int) *tgat.Model {
	return oooModelLayers(t, nodes, maxEdges, d, 2)
}

func oooModelLayers(t *testing.T, nodes, maxEdges, d, layers int) *tgat.Model {
	t.Helper()
	r := tensor.NewRNG(21)
	nodeFeat := tensor.Randn(r, nodes+1, d)
	edgeFeat := tensor.Randn(r, maxEdges+1, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: layers, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 4, Seed: 2}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// embedRows posts one embed request and returns the parsed rows.
func embedRows(t *testing.T, url string, ns []int32, ts []float64) [][]float32 {
	t.Helper()
	resp, body := post(t, url+"/v1/embed", embedRequest{Nodes: ns, Times: ts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed: %d %s", resp.StatusCode, body)
	}
	var er embedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	return er.Embeddings
}

// TestServeOutOfOrderIngestConvergesToSorted is the tentpole pin: a
// window-shuffled live ingest, with /v1/embed queries racing it, must
// converge to bitwise-identical embeddings against a server that
// ingested the same stream fully sorted. Bitwise equality holds because
// per-row computation is deterministic, the converged adjacency is
// identical, and selective invalidation under the graph's write gate
// leaves no stale memo behind. Run with -race.
func TestServeOutOfOrderIngestConvergesToSorted(t *testing.T) {
	serveOOOConvergence(t, 2, 500)
}

// TestServeOutOfOrderIngestConvergesToSortedDeep repeats the
// convergence pin with a 3-layer model, so the layer-2 memo cache and
// its transitive invalidation (DESIGN.md §11) are under the same
// concurrent ingest/embed race. Run with -race.
func TestServeOutOfOrderIngestConvergesToSortedDeep(t *testing.T) {
	serveOOOConvergence(t, 3, 300)
}

func serveOOOConvergence(t *testing.T, layers, total int) {
	const (
		nodes    = 20
		lateness = 60.0
		dim      = 16
	)
	m := oooModelLayers(t, nodes, total+1, dim, layers)
	r := tensor.NewRNG(33)

	// Strictly increasing distinct integral times and explicit edge ids:
	// no tie-order ambiguity between the two ingestion orders.
	stream := make([]edgeJSON, 0, total)
	for i := 0; len(stream) < total; i++ {
		src := int32(1 + r.Intn(nodes))
		dst := int32(1 + r.Intn(nodes))
		if src == dst {
			continue
		}
		stream = append(stream, edgeJSON{Src: src, Dst: dst, Time: float64(len(stream) + 1), Idx: int32(len(stream) + 1)})
	}
	// Shuffle by release time: each edge is delayed by up to 80% of the
	// lateness window, so every arrival is guaranteed in-window.
	type release struct {
		e  edgeJSON
		at float64
	}
	rels := make([]release, total)
	for i, e := range stream {
		rels[i] = release{e, e.Time + r.Float64()*lateness*0.8}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })

	sortedDyn := graph.NewDynamic(nodes)
	sortedSrv := newTestServer(t, m, sortedDyn, nil)
	sortedTS := httptest.NewServer(sortedSrv.Handler())
	t.Cleanup(sortedTS.Close)

	oooDyn := graph.NewDynamic(nodes)
	oooDyn.SetLateness(lateness)
	oooSrv := newTestServer(t, m, oooDyn, nil)
	oooTS := httptest.NewServer(oooSrv.Handler())
	t.Cleanup(oooTS.Close)

	ingest(t, sortedTS.URL, stream)

	// Shuffled ingest in chunks, with embed workers hammering the server
	// for already-ingested (node, time) pairs the whole time.
	var progress atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			wr := tensor.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := int(progress.Load())
				if p == 0 {
					continue
				}
				e := rels[wr.Intn(p)].e
				b, _ := json.Marshal(embedRequest{Nodes: []int32{e.Src, e.Dst}, Times: []float64{e.Time, e.Time}})
				resp, err := http.Post(oooTS.URL+"/v1/embed", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Errorf("concurrent embed: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("concurrent embed status %d", resp.StatusCode)
					return
				}
			}
		}(uint64(100 + w))
	}
	for lo := 0; lo < total; lo += 16 {
		hi := lo + 16
		if hi > total {
			hi = total
		}
		chunk := make([]edgeJSON, 0, hi-lo)
		for _, x := range rels[lo:hi] {
			chunk = append(chunk, x.e)
		}
		resp, body := post(t, oooTS.URL+"/v1/ingest", ingestRequest{Edges: chunk})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shuffled ingest: %d %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Dropped != 0 {
			t.Fatalf("in-window edge dropped: %s", body)
		}
		if ir.Accepted+ir.Late != hi-lo {
			t.Fatalf("chunk accounting wrong: %s", body)
		}
		progress.Store(int64(hi))
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.Fatal("concurrent embed worker failed")
	}

	if oooDyn.NumEdges() != total {
		t.Fatalf("converged graph has %d edges, want %d", oooDyn.NumEdges(), total)
	}
	if oooDyn.LateAccepted() == 0 {
		t.Fatal("shuffle produced no late edges (test is vacuous)")
	}

	// Replay every stream query on both servers and compare bitwise; a
	// second pass on the shuffled server is all cache hits and must not
	// change a single bit (no stale memo survived).
	probe := func(url string) [][]float32 {
		var rows [][]float32
		for lo := 0; lo < total; lo += 100 {
			batch := stream[lo : lo+100]
			ns := make([]int32, 2*len(batch))
			ts := make([]float64, 2*len(batch))
			for i, e := range batch {
				ns[i], ns[len(batch)+i] = e.Src, e.Dst
				ts[i], ts[len(batch)+i] = e.Time, e.Time
			}
			rows = append(rows, embedRows(t, url, ns, ts)...)
		}
		// Final-time probe over every node.
		ns := make([]int32, nodes)
		ts := make([]float64, nodes)
		for i := range ns {
			ns[i], ts[i] = int32(i+1), float64(total+1)
		}
		return append(rows, embedRows(t, url, ns, ts)...)
	}
	want := probe(sortedTS.URL)
	got := probe(oooTS.URL)
	again := probe(oooTS.URL)
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(want[i][j]) != math.Float32bits(got[i][j]) {
				t.Fatalf("row %d dim %d: shuffled ingest diverged from sorted (%v vs %v)",
					i, j, got[i][j], want[i][j])
			}
			if math.Float32bits(got[i][j]) != math.Float32bits(again[i][j]) {
				t.Fatalf("row %d dim %d: second (all-hit) pass changed (%v vs %v) — stale memo",
					i, j, got[i][j], again[i][j])
			}
		}
	}
	if layers >= 3 {
		// The deep cache must have survived the churn selectively — a
		// clear-all policy would leave it rebuilt but proves nothing; a
		// zero here means deep memoization never engaged at all.
		if c := oooSrv.Engine().CacheFor(2); c == nil || c.Len() == 0 {
			t.Fatal("layer-2 cache empty after converged deep serving")
		}
	}
}

func TestServeIngestLateEdgeInvalidatesStaleEmbedding(t *testing.T) {
	// Direct staleness pin: serve an embedding, ingest a late edge that
	// lands inside its sampled window, and require the re-served value
	// to change (the memo was invalidated) and to match a sorted-ingest
	// control bitwise.
	const nodes, dim = 20, 16
	m := oooModel(t, nodes, 64, dim)

	build := func(lateness float64) (*Server, *httptest.Server) {
		dyn := graph.NewDynamic(nodes)
		if lateness > 0 {
			dyn.SetLateness(lateness)
		}
		srv := newTestServer(t, m, dyn, nil)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts
	}
	srv, ts := build(100)
	ingest(t, ts.URL, []edgeJSON{
		{Src: 1, Dst: 2, Time: 10, Idx: 1},
		{Src: 1, Dst: 3, Time: 20, Idx: 2},
		{Src: 2, Dst: 4, Time: 30, Idx: 3},
	})
	before := embedRows(t, ts.URL, []int32{1}, []float64{40})[0]

	// Late edge at t=25 touching node 1: inside the (most-recent-4)
	// window of ⟨1, 40⟩.
	resp, body := post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{{Src: 1, Dst: 5, Time: 25, Idx: 4}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late ingest: %d %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Late != 1 {
		t.Fatalf("late edge not classified late: %s", body)
	}
	if srv.dyn.LateAccepted() != 1 {
		t.Fatal("LateAccepted counter not bumped")
	}

	after := embedRows(t, ts.URL, []int32{1}, []float64{40})[0]
	changed := false
	for j := range after {
		if math.Float32bits(after[j]) != math.Float32bits(before[j]) {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("embedding unchanged after in-window late edge (stale memo served)")
	}

	// Control: a server that saw the four edges in order must agree
	// bitwise with the post-invalidation value.
	_, ctlTS := build(0)
	ingest(t, ctlTS.URL, []edgeJSON{
		{Src: 1, Dst: 2, Time: 10, Idx: 1},
		{Src: 1, Dst: 3, Time: 20, Idx: 2},
		{Src: 1, Dst: 5, Time: 25, Idx: 4},
		{Src: 2, Dst: 4, Time: 30, Idx: 3},
	})
	want := embedRows(t, ctlTS.URL, []int32{1}, []float64{40})[0]
	for j := range want {
		if math.Float32bits(after[j]) != math.Float32bits(want[j]) {
			t.Fatalf("dim %d: late-ingest value %v != sorted control %v", j, after[j], want[j])
		}
	}
}

func TestServeIngestAppendInvalidatesFutureMemo(t *testing.T) {
	// Regression (PR 5 debt): only *late* edges invalidated memos. A
	// perfectly chronological append under an already-served future-time
	// embedding left the memo stale, and the server re-served the
	// pre-append value forever. Same shape as the late-edge pin above,
	// but with a strictly in-order ingest. Batched, it is also the
	// read-your-writes pin: the embed after the acknowledged append must
	// not be answered by a pass that predates it.
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		_, ts := mk("")
		ingest(t, ts.URL, []edgeJSON{
			{Src: 1, Dst: 2, Time: 10, Idx: 1},
			{Src: 1, Dst: 3, Time: 20, Idx: 2},
			{Src: 2, Dst: 4, Time: 30, Idx: 3},
		})
		// Serve ⟨1, 40⟩ ahead of the stream head: memoized at t=40.
		before := embedRows(t, ts.URL, []int32{1}, []float64{40})[0]

		// Chronological append at t=35 touching node 1 — inside the sampled
		// window of the cached query.
		resp, body := post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{{Src: 1, Dst: 5, Time: 35, Idx: 4}}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append ingest: %d %s", resp.StatusCode, body)
		}
		var ir ingestResponse
		if err := json.Unmarshal(body, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Accepted != 1 || ir.Late != 0 {
			t.Fatalf("append misclassified: %s", body)
		}
		if ir.Invalidated == 0 {
			t.Fatal("chronological append under a future-time memo invalidated nothing (the seed behavior)")
		}

		after := embedRows(t, ts.URL, []int32{1}, []float64{40})[0]
		changed := false
		for j := range after {
			if math.Float32bits(after[j]) != math.Float32bits(before[j]) {
				changed = true
				break
			}
		}
		if !changed {
			t.Fatal("embedding unchanged after in-window append (stale memo served)")
		}

		// Control: a server that had all four edges before the first query
		// must agree bitwise.
		_, ctlTS := mk("")
		ingest(t, ctlTS.URL, []edgeJSON{
			{Src: 1, Dst: 2, Time: 10, Idx: 1},
			{Src: 1, Dst: 3, Time: 20, Idx: 2},
			{Src: 2, Dst: 4, Time: 30, Idx: 3},
			{Src: 1, Dst: 5, Time: 35, Idx: 4},
		})
		want := embedRows(t, ctlTS.URL, []int32{1}, []float64{40})[0]
		for j := range want {
			if math.Float32bits(after[j]) != math.Float32bits(want[j]) {
				t.Fatalf("dim %d: post-append value %v != sorted control %v", j, after[j], want[j])
			}
		}
	})
}

func TestServeStatsReportIngestSection(t *testing.T) {
	const nodes, dim = 20, 16
	m := oooModel(t, nodes, 64, dim)
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(50)
	srv := newTestServer(t, m, dyn, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 100}})
	embedRows(t, ts.URL, []int32{1, 2}, []float64{100, 100})
	// One late (in-window) and one dropped (below watermark).
	post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{
		{Src: 1, Dst: 3, Time: 80},
		{Src: 2, Dst: 3, Time: 10},
	}})

	resp, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{100}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embed after late ingest: %d %s", resp.StatusCode, body)
	}
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Ingest.Lateness != 50 {
		t.Fatalf("stats lateness = %v", sr.Ingest.Lateness)
	}
	if sr.Ingest.Watermark != 50 {
		t.Fatalf("stats watermark = %v", sr.Ingest.Watermark)
	}
	if sr.Ingest.LateAccepted != 1 || sr.Ingest.LateDropped != 1 {
		t.Fatalf("late counters: %+v", sr.Ingest)
	}
	if sr.Ingested != 2 {
		t.Fatalf("ingested = %d, want 2 (append + late; drop not counted)", sr.Ingested)
	}

	// The Prometheus rendering carries the same counters.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		"tgopt_ingest_late_accepted_total 1",
		"tgopt_ingest_late_dropped_total 1",
		"tgopt_ingest_watermark 50",
		"tgopt_cache_invalidated_total",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestServeStatsReportPerLayerCache pins the per-layer cache breakdown:
// a 3-layer server must expose a cache_layers section on /v1/stats with
// one entry per memoized layer, and layer-labeled tgopt_cache_layer_*
// series on /metrics. The per-layer counters must sum to the aggregate
// section for the fields both report.
func TestServeStatsReportPerLayerCache(t *testing.T) {
	const nodes, dim = 20, 16
	m := oooModelLayers(t, nodes, 64, dim, 3)
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(50)
	srv := newTestServer(t, m, dyn, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ingest(t, ts.URL, []edgeJSON{
		{Src: 1, Dst: 2, Time: 10, Idx: 1},
		{Src: 1, Dst: 3, Time: 20, Idx: 2},
		{Src: 2, Dst: 4, Time: 30, Idx: 3},
	})
	embedRows(t, ts.URL, []int32{1, 2, 3}, []float64{40, 40, 40})
	embedRows(t, ts.URL, []int32{1, 2, 3}, []float64{40, 40, 40}) // all-hit pass: top-layer memo
	embedRows(t, ts.URL, []int32{1, 2, 3}, []float64{41, 41, 41}) // later t: misses the memo, re-reads layers 2 and 1

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.CacheLayers) != 2 {
		t.Fatalf("cache_layers has %d entries, want 2 (layers 1 and 2): %+v", len(sr.CacheLayers), sr.CacheLayers)
	}
	var items int
	var lookups, hits int64
	for i, ls := range sr.CacheLayers {
		if ls.Layer != i+1 {
			t.Fatalf("cache_layers[%d].Layer = %d, want %d", i, ls.Layer, i+1)
		}
		if ls.Items == 0 || ls.Lookups == 0 {
			t.Fatalf("layer %d reports no activity: %+v", ls.Layer, ls)
		}
		items += ls.Items
		lookups += ls.Lookups
		hits += ls.Hits
	}
	if items != sr.CacheItems {
		t.Fatalf("per-layer items sum %d != aggregate %d", items, sr.CacheItems)
	}
	if lookups != sr.Cache.Lookups || hits != sr.Cache.Hits {
		t.Fatalf("per-layer counters (%d lookups, %d hits) != aggregate (%d, %d)",
			lookups, hits, sr.Cache.Lookups, sr.Cache.Hits)
	}
	if sr.CacheLayers[1].Hits == 0 {
		t.Fatal("layer-2 cache never hit across the repeat pass")
	}
	if tm := sr.Cache.TopMemo; tm.Hits != 3 || tm.Lookups != 9 || tm.Stores != 6 {
		t.Fatalf("identical repeat not answered by the top-layer memo: %+v", tm)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, want := range []string{
		`tgopt_cache_layer_entries{layer="1"}`,
		`tgopt_cache_layer_entries{layer="2"}`,
		`tgopt_cache_layer_hits_total{layer="2"}`,
		`tgopt_cache_layer_lookups_total{layer="1"}`,
		"tgopt_top_memo_lookups_total 9",
		"tgopt_top_memo_hits_total 3",
		"tgopt_top_memo_stores_total 6",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

// TestServeIngestBeyondFeatureTableServes pins the padding-row fallback
// for live-ingested edges: edge ids past the model's feature table must
// embed as featureless (row 0), not read out of bounds. Before the
// guard this panicked the fused embed pass on any freshly ingested
// edge near a query target.
func TestServeIngestBeyondFeatureTableServes(t *testing.T) {
	m := oooModel(t, 10, 2, 8) // feature table holds 2 edges + padding
	dyn := graph.NewDynamic(10)
	srv := newTestServer(t, m, dyn, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ingest well past the table: auto-assigned ids run 1..8, rows 3..8
	// have no features.
	var edges []edgeJSON
	for i := 0; i < 8; i++ {
		edges = append(edges, edgeJSON{Src: int32(1 + i%9), Dst: int32(1 + (i+3)%9), Time: float64(10 * (i + 1))})
	}
	resp, body := post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: edges})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	// Such an edge reads the all-zero padding row (tgat.FeatureRow), in
	// the engine as in the baseline: a clamp to any other row differs.
	ns, at := []int32{1, 4, 7}, []float64{100, 100, 100}
	rows := embedRows(t, ts.URL, ns, at)
	want := m.Embed(graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0), ns, at)
	for i, row := range rows {
		for j, v := range row {
			if math.Float32bits(v) != math.Float32bits(want.At(i, j)) {
				t.Fatalf("row %d col %d = %v, baseline %v", i, j, v, want.At(i, j))
			}
		}
	}
}

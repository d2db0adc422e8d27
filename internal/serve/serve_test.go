package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// testModelDyn builds the shared test model and an empty dynamic graph
// — the same fixture whether the server under test is single-engine or
// sharded, so bodies are directly comparable between the two.
func testModelDyn(t *testing.T) (*tgat.Model, *graph.Dynamic) {
	t.Helper()
	const nodes, maxEdges, d = 20, 4096, 16
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, nodes+1, d)
	edgeFeat := tensor.Randn(r, maxEdges+1, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 4, Seed: 2}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m, graph.NewDynamic(nodes)
}

// testConfig is DefaultConfig for tests: one core and no request
// limits; each test turns on what it exercises.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Limits = Limits{}
	return cfg
}

// newTestServer builds a server over m and dyn from testConfig as set
// changes it (set may be nil), closed when the test ends.
func newTestServer(t testing.TB, m *tgat.Model, dyn *graph.Dynamic, set func(*Config)) *Server {
	t.Helper()
	cfg := testConfig()
	if set != nil {
		set(&cfg)
	}
	s, err := NewFromConfig(m, dyn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func testServer(t *testing.T) (*Server, *httptest.Server) { return testServerWith(t, nil) }

// testServerWith is testServer over a configuration set changes.
func testServerWith(t *testing.T, set func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	m, dyn := testModelDyn(t)
	s := newTestServer(t, m, dyn, set)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func ingest(t *testing.T, url string, edges []edgeJSON) {
	t.Helper()
	resp, body := post(t, url+"/v1/ingest", ingestRequest{Edges: edges})
	if resp.StatusCode != 200 {
		t.Fatalf("ingest failed: %d %s", resp.StatusCode, body)
	}
}

func TestServeIngestEmbedScore(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{
		{Src: 1, Dst: 2, Time: 10},
		{Src: 1, Dst: 3, Time: 20},
		{Src: 2, Dst: 4, Time: 30},
	})

	resp, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{40, 40}})
	if resp.StatusCode != 200 {
		t.Fatalf("embed: %d %s", resp.StatusCode, body)
	}
	var er embedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Embeddings) != 2 || len(er.Embeddings[0]) != 16 {
		t.Fatalf("embedding shape wrong: %d x %d", len(er.Embeddings), len(er.Embeddings[0]))
	}

	resp, body = post(t, ts.URL+"/v1/score", scoreRequest{Pairs: []edgeJSON{{Src: 1, Dst: 2, Time: 40}}})
	if resp.StatusCode != 200 {
		t.Fatalf("score: %d %s", resp.StatusCode, body)
	}
	var sr scoreResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Logits) != 1 || len(sr.Probs) != 1 {
		t.Fatalf("score shape wrong: %+v", sr)
	}
	if sr.Probs[0] <= 0 || sr.Probs[0] >= 1 {
		t.Fatalf("prob %v out of (0,1)", sr.Probs[0])
	}
}

func TestServeEmbedMatchesEngineDirectly(t *testing.T) {
	s, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{
		{Src: 5, Dst: 6, Time: 1},
		{Src: 5, Dst: 7, Time: 2},
	})
	_, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{5}, Times: []float64{3}})
	var er embedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	want := s.Engine().Embed([]int32{5}, []float64{3})
	for j := 0; j < 16; j++ {
		if er.Embeddings[0][j] != want.At(0, j) {
			t.Fatalf("served embedding differs at %d", j)
		}
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := testServer(t)
	cases := []struct {
		path string
		body any
	}{
		{"/v1/embed", embedRequest{Nodes: []int32{1}, Times: nil}},           // length mismatch
		{"/v1/embed", embedRequest{}},                                        // empty
		{"/v1/embed", embedRequest{Nodes: []int32{99}, Times: []float64{1}}}, // out of range
		{"/v1/embed", embedRequest{Nodes: []int32{0}, Times: []float64{1}}},  // padding node
		{"/v1/score", scoreRequest{}},                                        // empty
		{"/v1/score", scoreRequest{Pairs: []edgeJSON{{Src: 1, Dst: 99}}}},    // out of range
		{"/v1/ingest", ingestRequest{Edges: []edgeJSON{{Src: 0, Dst: 1}}}},   // bad endpoint
		{"/v1/ingest", map[string]any{"edges": []any{}, "unknown": "field"}}, // unknown field
	}
	for i, c := range cases {
		resp, _ := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d (%s): status %d, want 400", i, c.path, resp.StatusCode)
		}
	}
	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/embed")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/embed: %d", resp.StatusCode)
	}
	r2, _ := post(t, ts.URL+"/v1/stats", map[string]any{})
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: %d", r2.StatusCode)
	}
}

func TestServeRejectsNonFiniteTimes(t *testing.T) {
	// Non-finite times would truncate to arbitrary low bits in the memo
	// key, poisoning the caches. JSON has
	// no NaN/Inf literals, so over the wire they can only appear as
	// out-of-range numbers like 1e999 — rejected at decode — but the
	// handler-level guard must hold for any transport.
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})
	for _, raw := range []string{
		`{"nodes":[1],"times":[1e999]}`,
		`{"nodes":[1],"times":[-1e999]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("embed %s: status %d, want 400", raw, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		strings.NewReader(`{"pairs":[{"src":1,"dst":2,"time":1e999}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("score with overflow time: status %d, want 400", resp.StatusCode)
	}

	// The in-process guard itself, for values that bypass JSON.
	s, _ := testServer(t)
	for _, bad := range [][]float64{{math.NaN()}, {math.Inf(1)}, {1, math.Inf(-1)}} {
		rec := httptest.NewRecorder()
		if s.validTimes(rec, bad) {
			t.Fatalf("validTimes accepted %v", bad)
		}
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("validTimes(%v) wrote %d, want 400", bad, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	if !s.validTimes(rec, []float64{0, 1e308, -5}) {
		t.Fatal("validTimes rejected finite times")
	}
}

func TestServeIngestDropsTimeRegression(t *testing.T) {
	// With no lateness window configured, an out-of-order edge is below
	// the watermark: it is dropped and counted — never applied, never a
	// request failure (drops are per-edge outcomes, not client errors).
	s, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 100}})
	resp, body := post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{{Src: 1, Dst: 3, Time: 50}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("time-regressing ingest: %d %s", resp.StatusCode, body)
	}
	var ir ingestResponse
	if err := json.Unmarshal([]byte(body), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Accepted != 0 || ir.Dropped != 1 {
		t.Fatalf("drop accounting wrong: %s", body)
	}
	if s.dyn.NumEdges() != 1 {
		t.Fatalf("dropped edge reached the graph: %d edges", s.dyn.NumEdges())
	}
	if s.dyn.LateDropped() != 1 {
		t.Fatalf("LateDropped = %d, want 1", s.dyn.LateDropped())
	}
}

func TestServeStats(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}, {Src: 2, Dst: 3, Time: 2}})
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2, 1, 2}, Times: []float64{5, 5, 5, 5}})
	// The identical repeat is answered by the top-layer memo; the repeat
	// at a later time is not, and re-reads its neighbours at layer 1.
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{5, 5}})
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{6, 6}})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.NumEdges != 2 || sr.NumNodes != 20 {
		t.Fatalf("stats graph counts wrong: %+v", sr)
	}
	if sr.CacheItems == 0 {
		t.Fatal("stats show empty cache after embeds")
	}
	if tm := sr.Cache.TopMemo; tm.Hits != 2 || tm.Lookups != 6 || tm.Stores != 4 {
		t.Fatalf("identical repeat not answered by the top-layer memo: %+v", tm)
	}
	if sr.HitRate <= 0 {
		t.Fatal("repeated embed produced no cache hits")
	}
	if sr.Requests < 3 || sr.Ingested != 2 {
		t.Fatalf("request accounting wrong: %+v", sr)
	}
}

func TestServeEmbedStableAcrossIngest(t *testing.T) {
	// The no-invalidation claim: an embedding served at time t must be
	// byte-identical when re-requested after newer edges arrive.
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 10}, {Src: 1, Dst: 3, Time: 20}})
	_, body1 := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{25}})
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 4, Time: 30}, {Src: 1, Dst: 5, Time: 40}})
	_, body2 := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{25}})
	if !bytes.Equal(body1, body2) {
		t.Fatal("past-time embedding changed after ingest")
	}
	// And at a later time it must differ (new neighborhood).
	_, body3 := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{45}})
	if bytes.Equal(body1, body3) {
		t.Fatal("later-time embedding identical despite new interactions")
	}
}

func TestServeConcurrentClients(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}, {Src: 3, Dst: 4, Time: 2}})
	// postRaw avoids t.Fatal from inside goroutines.
	postRaw := func(path string, body any) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			return fmt.Errorf("%s: %d %s", path, resp.StatusCode, buf.String())
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var err error
				if w%2 == 0 {
					err = postRaw("/v1/embed", embedRequest{Nodes: []int32{1, 3}, Times: []float64{5, 5}})
				} else {
					err = postRaw("/v1/ingest", ingestRequest{
						Edges: []edgeJSON{{Src: int32(1 + (w+i)%19), Dst: int32(2 + (w+i)%18), Time: 1e9}},
					})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{5}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, metric := range []string{
		"tgopt_graph_edges 1", "tgopt_cache_items", "tgopt_requests_total", "tgopt_ingested_total 1",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("metrics missing %q in:\n%s", metric, body)
		}
	}
	// The cache has one tier: no disk-tier or promotion series.
	for _, gone := range []string{"tgopt_cache_spill", "tgopt_cache_promote", "tgopt_cache_layer_spill"} {
		if strings.Contains(body, gone) {
			t.Fatalf("metrics carry a %s* series:\n%s", gone, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	r2, _ := post(t, ts.URL+"/metrics", map[string]any{})
	if r2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: %d", r2.StatusCode)
	}
}

func TestServeExplain(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{
		{Src: 1, Dst: 2, Time: 10},
		{Src: 1, Dst: 3, Time: 20},
		{Src: 1, Dst: 2, Time: 30},
	})
	resp, body := post(t, ts.URL+"/v1/explain", explainRequest{Node: 1, Time: 40})
	if resp.StatusCode != 200 {
		t.Fatalf("explain: %d %s", resp.StatusCode, body)
	}
	var er explainResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Embedding) != 16 {
		t.Fatalf("embedding width %d", len(er.Embedding))
	}
	if len(er.Attributions) != 3 {
		t.Fatalf("attributions = %d, want 3", len(er.Attributions))
	}
	var sum float64
	for i, a := range er.Attributions {
		if a.EdgeTime >= 40 {
			t.Fatal("attribution violates temporal constraint")
		}
		if i > 0 && er.Attributions[i-1].Weight < a.Weight {
			t.Fatal("attributions not sorted")
		}
		sum += a.Weight
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("weights sum %v", sum)
	}
	// Validation.
	r2, _ := post(t, ts.URL+"/v1/explain", explainRequest{Node: 99, Time: 40})
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range explain: %d", r2.StatusCode)
	}
}

// TestServeExplainHoldsTheWriteGate: /v1/explain samples once per level
// under the read side of the graph's write gate, so a request issued
// while a writer holds the write side waits for it, and then explains
// the graph after the write: its embedding is bitwise Model.Embed's.
func TestServeExplainHoldsTheWriteGate(t *testing.T) {
	s, ts := testServer(t)
	ingest(t, ts.URL, shardTestEdges)
	gate := s.dyn.Gate()
	gate.Lock()
	type reply struct {
		body []byte
		code int
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		body, code, err := postBody(ts.URL, "/v1/explain", explainRequest{Node: 1, Time: 90})
		done <- reply{body, code, err}
	}()
	select {
	case <-done:
		gate.Unlock()
		t.Fatal("/v1/explain returned while the write side of the gate was held")
	case <-time.After(50 * time.Millisecond):
	}
	// A write under the hold lands in node 1's window at 90.
	if _, _, err := s.dyn.Ingest(graph.Edge{Src: 1, Dst: 9, Time: 85}); err != nil {
		gate.Unlock()
		t.Fatal(err)
	}
	gate.Unlock()
	r := <-done
	if r.err != nil || r.code != 200 {
		t.Fatalf("explain: %d %v %s", r.code, r.err, r.body)
	}
	var er explainResponse
	if err := json.Unmarshal(r.body, &er); err != nil {
		t.Fatal(err)
	}
	m := s.cur.Load().model
	want := m.Embed(graph.NewDynamicSampler(s.dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0), []int32{1}, []float64{90}).Row(0)
	for j := range want {
		if math.Float32bits(er.Embedding[j]) != math.Float32bits(want[j]) {
			t.Fatalf("embedding col %d = %v, Model.Embed after the write %v", j, er.Embedding[j], want[j])
		}
	}
	found := false
	for _, a := range er.Attributions {
		found = found || a.EdgeTime == 85
	}
	if !found {
		t.Fatal("the explanation does not attend to the edge written under the hold")
	}
}

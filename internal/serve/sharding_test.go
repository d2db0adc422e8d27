package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
)

var shardTestEdges = []edgeJSON{
	{Src: 1, Dst: 2, Time: 10}, {Src: 1, Dst: 3, Time: 20},
	{Src: 2, Dst: 4, Time: 30}, {Src: 3, Dst: 5, Time: 40},
	{Src: 4, Dst: 6, Time: 50}, {Src: 5, Dst: 7, Time: 60},
	{Src: 6, Dst: 8, Time: 70}, {Src: 7, Dst: 1, Time: 80},
}

func waitForServe(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestServeShardedEquivalence is the router/gather ordering regression
// test (the sharded sibling of TestServeBatchedEquivalence): a scrambled
// embed request scattered over 4 shards must return rows in exact input
// order, bitwise-identical to the unsharded single-engine server, alone
// and under concurrent identical requests through per-shard batchers.
func TestServeShardedEquivalence(t *testing.T) {
	_, off := testServer(t)
	sOn, on := testServerWith(t, func(c *Config) { c.Shards = 4 })
	ingest(t, off.URL, shardTestEdges)
	ingest(t, on.URL, shardTestEdges)

	// Targets deliberately scrambled across owners and duplicated, so a
	// gather that appended rows in shard-completion order (or deduped
	// without restoring multiplicity) would corrupt the body.
	req := embedRequest{
		Nodes: []int32{7, 1, 7, 3, 5, 2, 8, 1, 6, 4, 2, 7},
		Times: []float64{90, 90, 90, 95, 95, 90, 95, 90, 95, 95, 90, 90},
	}
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("unsharded ground truth: code %d err %v", code, err)
	}
	got, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("sharded embed: code %d err %v", code, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded body differs from unsharded\nsharded:   %s\nunsharded: %s", got, want)
	}

	// Concurrent identical requests: still bitwise-identical.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, code, err := postBody(on.URL, "/v1/embed", req)
			if err != nil || code != 200 {
				errs <- fmt.Errorf("concurrent sharded embed: code %d err %v", code, err)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("concurrent sharded body differs from unsharded")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var sr statsResponse
	getJSON(t, on.URL+"/v1/stats", &sr)
	if sr.Shards == nil {
		t.Fatal("stats missing shards section in sharded mode")
	}
	if sr.Shards.Healthy != 4 {
		t.Fatalf("healthy = %d, want 4", sr.Shards.Healthy)
	}
	if sr.Batching.Enqueued == 0 {
		t.Fatalf("per-shard batchers unused: %+v", sr.Batching)
	}
	if sOn.CacheLen() == 0 {
		t.Fatal("shard caches empty after serving")
	}
	// Per-layer stats must survive the shard merge: the summed Items
	// across layers equals the router's total entry count, and the
	// stats response carries the same per-layer section it does in
	// single-engine mode.
	if len(sr.CacheLayers) == 0 {
		t.Fatal("sharded stats missing cache_layers section")
	}
	layerItems := 0
	for _, lc := range sOn.Router().LayerCacheStats() {
		layerItems += lc.Items
	}
	if layerItems != sOn.CacheLen() {
		t.Fatalf("merged per-layer Items %d != server CacheLen %d",
			layerItems, sOn.CacheLen())
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// poisonEmbedder panics on any shard whose batch contains the poisoned
// node while armed — the fault follows the target, so the primary and
// every fallback for that group fail, forcing a degraded row rather
// than a rescued one.
type poisonEmbedder struct {
	core.Embedder
	node  int32
	armed *atomic.Bool
}

func (p poisonEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if p.armed.Load() {
		for _, n := range nodes {
			if n == p.node {
				panic("poisoned target")
			}
		}
	}
	return p.Embedder.EmbedWith(ar, nodes, ts)
}

// TestServeShardedPartialResponse drives the degraded contract over
// HTTP: a request whose group fails on every shard returns 206 with
// partial=true, null degraded rows, and exact remaining rows; /v1/stats
// and /metrics expose the crash and restart; after the supervisor restarts
// the crashed shards the same request returns 200 bitwise-identical to
// the unsharded server.
func TestServeShardedPartialResponse(t *testing.T) {
	const poisoned = 3
	var armed atomic.Bool
	_, off := testServer(t)
	s, on := testServerWith(t, func(c *Config) {
		c.Shards = 4
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			return poisonEmbedder{Embedder: e, node: poisoned, armed: &armed}
		}
	})
	ingest(t, off.URL, shardTestEdges)
	ingest(t, on.URL, shardTestEdges)

	req := embedRequest{
		Nodes: []int32{1, 2, poisoned, 4},
		Times: []float64{90, 90, 90, 90},
	}
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != 200 {
		t.Fatalf("unsharded ground truth: code %d err %v", code, err)
	}
	var wantResp embedResponse
	if err := json.Unmarshal(want, &wantResp); err != nil {
		t.Fatal(err)
	}

	// Healthy first: full 200, bitwise equal.
	got, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil || code != 200 || !bytes.Equal(got, want) {
		t.Fatalf("healthy sharded embed: code %d err %v", code, err)
	}

	armed.Store(true)
	body, code, err := postBody(on.URL, "/v1/embed", req)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusPartialContent {
		t.Fatalf("poisoned embed: code %d body %s, want 206", code, body)
	}
	var pr embedResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Partial || len(pr.Degraded) == 0 {
		t.Fatalf("206 body not marked partial: %s", body)
	}
	bad := map[int]bool{}
	for _, i := range pr.Degraded {
		bad[i] = true
	}
	if !bad[2] {
		t.Fatalf("poisoned row 2 not degraded: %v", pr.Degraded)
	}
	for i, row := range pr.Embeddings {
		if bad[i] {
			if row != nil {
				t.Fatalf("degraded row %d not null: %v", i, row)
			}
			continue
		}
		if len(row) != len(wantResp.Embeddings[i]) {
			t.Fatalf("row %d length mismatch", i)
		}
		for j := range row {
			if row[j] != wantResp.Embeddings[i][j] {
				t.Fatalf("non-degraded row %d differs from unsharded reference", i)
			}
		}
	}
	armed.Store(false)

	// The poisoned group's shards crashed; the supervisor restarts them
	// and the pool settles back to full clean 200s. The healthy replicas
	// can serve that 200 before any rebuild has finished, so wait for
	// the rebuilds themselves before reading the restart counters.
	s.Router().WaitRestarts()
	waitForServe(t, 5*time.Second, func() bool {
		body, code, err := postBody(on.URL, "/v1/embed", req)
		return err == nil && code == 200 && bytes.Equal(body, want)
	})

	sr, _ := scrapeBoth(t, on.URL)
	if sr.Shards == nil {
		t.Fatal("stats missing shards section")
	}
	if sr.Shards.PartialResponses == 0 || sr.Shards.DegradedTargets == 0 {
		t.Fatalf("partial counters not booked: %+v", sr.Shards)
	}
	var panics, restarts int64
	for _, v := range sr.Shards.Shards {
		panics += v.Panics
		restarts += v.Restarts
	}
	if panics == 0 || restarts == 0 {
		t.Fatalf("crash and restart not visible in stats: panics=%d restarts=%d", panics, restarts)
	}

	// The same cycle must be scrapeable from /metrics.
	resp, err := http.Get(on.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, series := range []string{
		"tgopt_shards 4",
		"tgopt_partial_responses_total",
		"tgopt_shard_up{shard=\"0\"}",
		"tgopt_shard_panics_total{shard=",
		"tgopt_shard_restarts_total{shard=",
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
	for _, gone := range []string{"tgopt_cache_spill", "tgopt_cache_promote", "tgopt_cache_layer_spill", "breaker", "quorum", "hedge"} {
		if strings.Contains(metrics, gone) {
			t.Fatalf("/metrics carries a %s* series", gone)
		}
	}
}

// crashEmbedder panics on every shard whose id is below down — the
// tests crash shards in id order with it.
type crashEmbedder struct {
	core.Embedder
	id   int32
	down *atomic.Int32
}

func (c crashEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if c.id < c.down.Load() {
		panic("injected shard crash")
	}
	return c.Embedder.EmbedWith(ar, nodes, ts)
}

// crashedPool is a 2-shard server whose router is closed, so a crashed
// shard stays down, and whose shards crash in id order as down rises;
// set configures the rest (nil: nothing).
func crashedPool(t *testing.T, set func(*Config)) (*Server, *httptest.Server, *atomic.Int32) {
	t.Helper()
	down := new(atomic.Int32)
	s, ts := testServerWith(t, func(c *Config) {
		if set != nil {
			set(c)
		}
		c.Shards = 2
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			return crashEmbedder{Embedder: e, id: int32(id), down: down}
		}
	})
	ingest(t, ts.URL, shardTestEdges)
	s.Router().Close()
	return s, ts, down
}

// TestServeHealthEndpoints pins the /healthz and /readyz contract in
// both serving modes, and a pool's readiness rule: ready while at least
// one shard is up; with none up an embed is a 503 with Retry-After,
// counted in unavailable, and /readyz is 503.
func TestServeHealthEndpoints(t *testing.T) {
	t.Run("lifecycle", func(t *testing.T) {
		forEachBackend(t, readyzLifecycle)
	})

	t.Run("no-shard-up", func(t *testing.T) {
		s, ts, down := crashedPool(t, nil)
		s.Start()
		req := embedRequest{Nodes: []int32{1, 2, 3, 4}, Times: []float64{90, 90, 90, 90}}

		// Shard 0 crashes on its first leg; shard 1 answers for both.
		down.Store(1)
		if _, code, err := postBody(ts.URL, "/v1/embed", req); err != nil || code != 200 {
			t.Fatalf("embed with shard 0 crashing: code %d err %v, want 200", code, err)
		}
		if up := s.Router().Stats().Healthy; up != 1 {
			t.Fatalf("%d shards up, want 1: shard 0 took no leg", up)
		}
		if code := getCode(t, ts.URL+"/readyz"); code != 200 {
			t.Fatalf("/readyz with one shard up = %d, want 200", code)
		}

		// Shard 1 crashes too: this embed degrades, the next finds no
		// shard up.
		down.Store(2)
		postBody(ts.URL, "/v1/embed", req)
		resp, body := post(t, ts.URL+"/v1/embed", req)
		if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("embed with no shard up = %d (%s), want 503 with Retry-After", resp.StatusCode, body)
		}
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("/readyz with no shard up = %d, want 503 with Retry-After", resp.StatusCode)
		}
		var sr statsResponse
		getJSON(t, ts.URL+"/v1/stats", &sr)
		if sr.Unavailable != 1 || sr.Shards.Healthy != 0 {
			t.Fatalf("unavailable = %d, healthy = %d; want 1 and 0", sr.Unavailable, sr.Shards.Healthy)
		}
	})
}

// TestServeSnapshotWithNoShardUpFails: a pool snapshot that finds every
// shard crashed wrote nothing, so it is an error — the background
// snapshotter books it in snapshot_errors, never in snapshots.
func TestServeSnapshotWithNoShardUpFails(t *testing.T) {
	dir := t.TempDir()
	var failed atomic.Int64
	s, ts, down := crashedPool(t, func(c *Config) {
		c.CacheFile, c.SnapshotInterval = dir, 5*time.Millisecond
		c.Logf = func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), shard.ErrNoShardUp.Error()) {
				failed.Add(1)
			}
		}
	})
	req := embedRequest{Nodes: []int32{1, 2, 3, 4}, Times: []float64{90, 90, 90, 90}}
	if _, code, err := postBody(ts.URL, "/v1/embed", req); err != nil || code != 200 {
		t.Fatalf("warm embed: code %d err %v", code, err)
	}
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	down.Store(2)
	postBody(ts.URL, "/v1/embed", req) // both shards crash
	if s.Router().Stats().Healthy != 0 {
		t.Fatal("a shard is still up")
	}
	if err := s.SaveSnapshot(); !errors.Is(err, shard.ErrNoShardUp) {
		t.Fatalf("SaveSnapshot with no shard up = %v, want ErrNoShardUp", err)
	}

	var before statsResponse
	getJSON(t, ts.URL+"/v1/stats", &before)
	stop := s.Start() // the snapshotter's ticks find no shard up
	waitForServe(t, 5*time.Second, func() bool { return failed.Load() > 0 })
	if err := stop(); !errors.Is(err, shard.ErrNoShardUp) {
		t.Fatalf("final save with no shard up = %v, want ErrNoShardUp", err)
	}
	var after statsResponse
	getJSON(t, ts.URL+"/v1/stats", &after)
	if after.Snapshots != before.Snapshots {
		t.Fatalf("snapshots = %d after failed saves, was %d", after.Snapshots, before.Snapshots)
	}
	if got := after.SnapErrors - before.SnapErrors; got != failed.Load() {
		t.Fatalf("snapshot_errors rose by %d over %d failed saves", got, failed.Load())
	}
}

// readyzLifecycle is the /healthz and /readyz contract that does not
// depend on shard health: not ready until Start, not ready again
// once draining, alive throughout.
func readyzLifecycle(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
	s, ts := mk("")
	if code := getCode(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != 503 {
		t.Fatalf("/readyz before Start = %d, want 503", code)
	}
	s.Start()
	if code := getCode(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("/readyz after Start = %d, want 200", code)
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("/readyz draining = %d (Retry-After %q), want 503 with hint", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := getCode(t, ts.URL+"/healthz"); code != 200 {
		t.Fatal("/healthz must stay 200 while draining")
	}
}

func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestWriteEmbedErrorAccounting pins the 499/503/504 split: client
// cancellation is booked as client_cancels (nginx-style 499), never as
// a server-side 503, and a pool with no shard up is a 503 counted in
// unavailable that carries a Retry-After hint.
func TestWriteEmbedErrorAccounting(t *testing.T) {
	s := &Server{}
	cases := []struct {
		err        error
		code       int
		retryAfter bool
	}{
		{context.Canceled, statusClientClosedRequest, false},
		{fmt.Errorf("leg: %w", context.Canceled), statusClientClosedRequest, false},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{fmt.Errorf("embed: %w", shard.ErrNoShardUp), http.StatusServiceUnavailable, true},
		{fmt.Errorf("disk on fire"), http.StatusServiceUnavailable, false},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		s.writeEmbedError(rec, tc.err)
		if rec.Code != tc.code {
			t.Errorf("writeEmbedError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
			t.Errorf("writeEmbedError(%v) Retry-After present = %v, want %v", tc.err, got, tc.retryAfter)
		}
	}
	if got := s.clientCancels.Load(); got != 2 {
		t.Errorf("clientCancels = %d, want 2 (cancellation must not book as unavailable)", got)
	}
	if got := s.unavailable.Load(); got != 2 {
		t.Errorf("unavailable = %d, want 2", got)
	}
}

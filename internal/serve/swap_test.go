package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/swap"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// swapSeedModel is testModelDyn's model with a caller-chosen parameter
// seed over identical feature tables: two seeds stand in for two
// published versions of one architecture.
func swapSeedModel(t *testing.T, seed uint64) *tgat.Model {
	t.Helper()
	const nodes, maxEdges, d = 20, 4096, 16
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

// swapSeedDyn is the deterministic 60-edge stream every swap-equivalence
// fixture serves over; all query times sit past its end.
func swapSeedDyn(t *testing.T) *graph.Dynamic {
	t.Helper()
	dyn := graph.NewDynamic(20)
	for i := 0; i < 60; i++ {
		e := graph.Edge{
			Src:  int32(1 + (i*7)%19),
			Dst:  int32(1 + (i*11+3)%19),
			Time: float64(10 * (i + 1)),
		}
		if _, _, err := dyn.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

var (
	swapQueryNodes = []int32{1, 5, 3, 1, 9, 12, 5, 1}
	swapQueryTimes = []float64{1000, 1000, 1000, 900, 1000, 1000, 1000, 900}
	swapQueryPairs = []edgeJSON{
		{Src: 1, Dst: 2, Time: 1000}, {Src: 3, Dst: 4, Time: 1000},
		{Src: 5, Dst: 6, Time: 1000}, {Src: 1, Dst: 2, Time: 900},
	}
)

// recordJSON runs one request straight through a handler (no network)
// and decodes the JSON body.
func recordJSON(t *testing.T, h http.Handler, method, path string, body, out any) int {
	t.Helper()
	var rb io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rb = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rb)
	rd := httptest.NewRecorder()
	h.ServeHTTP(rd, req)
	if out != nil && rd.Code == http.StatusOK {
		if err := json.Unmarshal(rd.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: %v (%s)", method, path, err, rd.Body.String())
		}
	}
	return rd.Code
}

// swapRefRows computes the ground-truth embed rows and score logits for
// one params seed, through the same JSON path the hammered responses
// take (so comparisons are exact bitwise, encoding included).
func swapRefRows(t *testing.T, seed uint64) ([][]float32, []float64) {
	t.Helper()
	h := newTestServer(t, swapSeedModel(t, seed), swapSeedDyn(t), nil).Handler()
	var er embedResponse
	if code := recordJSON(t, h, http.MethodPost, "/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, &er); code != 200 {
		t.Fatalf("ref embed: %d", code)
	}
	var sr scoreResponse
	if code := recordJSON(t, h, http.MethodPost, "/v1/score", scoreRequest{Pairs: swapQueryPairs}, &sr); code != 200 {
		t.Fatalf("ref score: %d", code)
	}
	return er.Embeddings, sr.Logits
}

func rowsEqual(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func logitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// postE is the goroutine-safe post: hammer workers cannot t.Fatal.
func postE(url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// buildSwapServer builds the server under test over the shared fixture:
// single-engine when shards == 0, a shard pool otherwise, with the swap
// loop swap configures (a zero SwapConfig: none).
func buildSwapServer(t *testing.T, m *tgat.Model, shards int, swap SwapConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, m, swapSeedDyn(t), func(c *Config) {
		c.Shards, c.Swap = max(1, shards), swap
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestServeSwapEquivalenceUnderLoad is the online-learning acceptance
// test: hammer /v1/embed, /v1/score, and /v1/ingest while hot-swapping
// params back and forth between two published versions, in every
// serving configuration (single-engine and sharded; every row float32).
// Every response must be computed wholly under ONE version — bitwise
// equal to a fresh server on that version's params — and after the
// final swap the server must converge exactly onto the final params
// with zero rollbacks. Run with -race in CI (scripts/check.sh).
func TestServeSwapEquivalenceUnderLoad(t *testing.T) {
	for _, mode := range []struct {
		name   string
		shards int
	}{{"single", 0}, {"sharded", 3}} {
		t.Run(mode.name+"/float32", func(t *testing.T) {
			runSwapEquiv(t, mode.shards)
		})
	}
}

func runSwapEquiv(t *testing.T, shards int) {
	rowsA, logitsA := swapRefRows(t, 2)
	rowsB, logitsB := swapRefRows(t, 9)
	if rowsEqual(rowsA, rowsB) {
		t.Fatal("fixture degenerate: both versions produce identical rows")
	}

	dir := t.TempDir()
	pathA := filepath.Join(dir, "params-a.tgp")
	pathB := filepath.Join(dir, "params-b.tgp")
	if err := swapSeedModel(t, 2).SaveParamsFS(checkpoint.OS{}, pathA); err != nil {
		t.Fatal(err)
	}
	if err := swapSeedModel(t, 9).SaveParamsFS(checkpoint.OS{}, pathB); err != nil {
		t.Fatal(err)
	}

	srv, ts := buildSwapServer(t, swapSeedModel(t, 2), shards, SwapConfig{})

	stop := make(chan struct{})
	errc := make(chan error, 16)
	workers := 0
	hammer := func(f func() error) {
		workers++
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				if err := f(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	// Every response must be bitwise one version's rows.
	for i := 0; i < 3; i++ {
		hammer(func() error {
			code, body, err := postE(ts.URL+"/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes})
			if err != nil {
				return err
			}
			if code != 200 {
				return fmt.Errorf("embed: %d %s", code, body)
			}
			var er embedResponse
			if err := json.Unmarshal(body, &er); err != nil {
				return err
			}
			if !rowsEqual(er.Embeddings, rowsA) && !rowsEqual(er.Embeddings, rowsB) {
				return fmt.Errorf("embed rows match neither version (mixed-version or stale-cache response)")
			}
			return nil
		})
	}
	for i := 0; i < 2; i++ {
		hammer(func() error {
			code, body, err := postE(ts.URL+"/v1/score", scoreRequest{Pairs: swapQueryPairs})
			if err != nil {
				return err
			}
			if code != 200 {
				return fmt.Errorf("score: %d %s", code, body)
			}
			var sr scoreResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				return err
			}
			if !logitsEqual(sr.Logits, logitsA) && !logitsEqual(sr.Logits, logitsB) {
				return fmt.Errorf("score logits match neither version (embed/head version tear)")
			}
			return nil
		})
	}
	var ingestTime float64 = 2000
	hammer(func() error {
		// Strictly-future edges: invalidation churns, but rows at the
		// query times stay pinned to their version's reference.
		ingestTime += 10
		code, body, err := postE(ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{
			{Src: 2, Dst: 3, Time: ingestTime},
		}})
		if err != nil {
			return err
		}
		if code != 200 {
			return fmt.Errorf("ingest: %d %s", code, body)
		}
		return nil
	})

	// Swap back and forth under load; odd versions are B, even are A.
	version := uint64(0)
	for i := 0; i < 10; i++ {
		version++
		p := pathB
		if version%2 == 0 {
			p = pathA
		}
		if err := srv.SwapParams(checkpoint.OS{}, p, version); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	for i := 0; i < workers; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// Converge on B and require exact final-state equality: a stale
	// cache entry from any earlier version would break the bitwise
	// match.
	version++
	if version%2 == 0 {
		version++
	}
	if err := srv.SwapParams(checkpoint.OS{}, pathB, version); err != nil {
		t.Fatal(err)
	}
	var er embedResponse
	if code := recordJSON(t, srv.Handler(), http.MethodPost, "/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, &er); code != 200 {
		t.Fatalf("final embed: %d", code)
	}
	if !rowsEqual(er.Embeddings, rowsB) {
		t.Fatal("final rows do not match the final params version")
	}
	var sr scoreResponse
	if code := recordJSON(t, srv.Handler(), http.MethodPost, "/v1/score", scoreRequest{Pairs: swapQueryPairs}, &sr); code != 200 {
		t.Fatalf("final score: %d", code)
	}
	if !logitsEqual(sr.Logits, logitsB) {
		t.Fatal("final logits do not match the final params version")
	}

	var st statsResponse
	if code := recordJSON(t, srv.Handler(), http.MethodGet, "/v1/stats", nil, &st); code != 200 {
		t.Fatalf("stats: %d", code)
	}
	if st.Model.Version != version {
		t.Fatalf("stats model version %d, want %d", st.Model.Version, version)
	}
	if st.Model.Swaps != int64(version) {
		t.Fatalf("stats swaps %d, want %d", st.Model.Swaps, version)
	}
	if st.Model.Rollbacks != 0 {
		t.Fatalf("unexpected rollbacks: %d", st.Model.Rollbacks)
	}
	if st.Model.LastSwapUnix == 0 {
		t.Fatal("last_swap_unix not stamped")
	}
}

// TestServeSwapRollbackOnCorruptSnapshot pins the rollback contract: a
// bit-flipped params checkpoint is rejected before anything mutates —
// the version, the tensors, and every served row stay exactly as they
// were, and the attempt is counted.
func TestServeSwapRollbackOnCorruptSnapshot(t *testing.T) {
	rowsA, _ := swapRefRows(t, 2)
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0, SwapConfig{})

	dir := t.TempDir()
	bad := filepath.Join(dir, "params-bad.tgp")
	if err := swapSeedModel(t, 9).SaveParamsFS(checkpoint.OS{}, bad); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipBit(bad, int64(len(raw))/2*8+5); err != nil {
		t.Fatal(err)
	}

	if err := srv.SwapParams(checkpoint.OS{}, bad, 1); err == nil {
		t.Fatal("corrupt snapshot swapped in")
	}
	if v := srv.ModelVersion(); v != 0 {
		t.Fatalf("version advanced to %d on rejected swap", v)
	}
	if srv.SwapRollbacks() != 1 {
		t.Fatalf("rollbacks = %d, want 1", srv.SwapRollbacks())
	}
	var er embedResponse
	if code := recordJSON(t, srv.Handler(), http.MethodPost, "/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, &er); code != 200 {
		t.Fatalf("embed: %d", code)
	}
	if !rowsEqual(er.Embeddings, rowsA) {
		t.Fatal("rows changed after a rejected swap")
	}
}

// TestServeSwapLoopPicksUpPublished pins the watcher role end to end:
// a version published into the swap directory (the tgopt-train
// -swap-dir path) is hot-swapped in by the background loop without a
// restart.
func TestServeSwapLoopPicksUpPublished(t *testing.T) {
	rowsB, _ := swapRefRows(t, 9)
	dir := t.TempDir()
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0, SwapConfig{Dir: dir, Interval: 2 * time.Millisecond})
	defer srv.Start()()

	if err := swap.Publish(checkpoint.OS{}, dir, swapSeedModel(t, 9), 3); err != nil {
		t.Fatal(err)
	}
	waitForServe(t, 5*time.Second, func() bool { return srv.ModelVersion() == 3 })

	var er embedResponse
	if code := recordJSON(t, srv.Handler(), http.MethodPost, "/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, &er); code != 200 {
		t.Fatalf("embed: %d", code)
	}
	if !rowsEqual(er.Embeddings, rowsB) {
		t.Fatal("rows do not reflect the published params after loop pickup")
	}
}

// TestServeSwapLoopTrainerRole pins the -swap-train role end to end:
// the background loop fine-tunes on the watermarked prefix of the live
// stream, publishes the result into the swap directory, and hot-swaps
// it in — and the served rows move off the boot params.
func TestServeSwapLoopTrainerRole(t *testing.T) {
	rowsA, _ := swapRefRows(t, 2)
	tcfg := trainer.DefaultConfig()
	tcfg.Epochs = 1
	tcfg.BatchSize = 16
	dir := t.TempDir()
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0, SwapConfig{Dir: dir, Interval: 5 * time.Millisecond, Train: true, Trainer: tcfg})
	defer srv.Start()()

	waitForServe(t, 30*time.Second, func() bool { return srv.ModelVersion() >= 1 })
	v, _, err := swap.Latest(checkpoint.OS{}, dir)
	if err != nil || v < 1 {
		t.Fatalf("nothing published: v%d err %v", v, err)
	}

	var er embedResponse
	if code := recordJSON(t, srv.Handler(), http.MethodPost, "/v1/embed", embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, &er); code != 200 {
		t.Fatalf("embed: %d", code)
	}
	if rowsEqual(er.Embeddings, rowsA) {
		t.Fatal("rows unchanged after a fine-tune swap")
	}
}

// ModelVersion returns the params version currently serving: the one
// the published version's model carries.
func (s *Server) ModelVersion() uint64 { return s.cur.Load().model.Version() }

// SwapRollbacks returns how many swaps were rejected with the previous
// version kept serving.
func (s *Server) SwapRollbacks() int64 { return s.rollbacks.Load() }

// swapBackendEmbed is the read the ported pool-swap tests ask, over
// shardTestEdges: repeated nodes, two times past the stream's end.
var swapBackendEmbed = embedRequest{
	Nodes: []int32{7, 1, 7, 3, 5, 2, 8, 1, 6, 4},
	Times: []float64{90, 90, 90, 95, 95, 90, 95, 95, 90, 95},
}

// swapRefBody is the body a fresh single-core server on params seed
// answers for req at path after ingesting edges: what every backend,
// after a swap to that seed, must answer byte for byte.
func swapRefBody(t *testing.T, seed uint64, edges []edgeJSON, path string, req any) []byte {
	t.Helper()
	s := newTestServer(t, swapSeedModel(t, seed), graph.NewDynamic(20), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ingest(t, ts.URL, edges)
	body, code, err := postBody(ts.URL, path, req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reference %s: code %d err %v (%s)", path, code, err, body)
	}
	return body
}

// requireBody posts req and requires a 200 whose body is want.
func requireBody(t *testing.T, what, url, path string, req any, want []byte) {
	t.Helper()
	body, code, err := postBody(url, path, req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("%s: code %d err %v (%s)", what, code, err, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: body differs\n got: %s\nwant: %s", what, body, want)
	}
}

// saveSeed publishes params seed as a checkpoint file and returns its
// path.
func saveSeed(t *testing.T, seed uint64, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := swapSeedModel(t, seed).SaveParamsFS(checkpoint.OS{}, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// redirectFS serves Open(from) from a different file — the harness for
// "the published params checkpoint reads back corrupt".
type redirectFS struct {
	checkpoint.FS
	from, to string
}

func (r redirectFS) Open(name string) (io.ReadCloser, error) {
	if name == r.from {
		name = r.to
	}
	return r.FS.Open(name)
}

// TestRouterSwapAllOrNothing pins the parse-then-publish swap in every
// backend mode: with the params checkpoint reading back bit-flipped,
// the parse fails and NOTHING changes anywhere — not the version, not
// a live engine's, not a single served row. Clearing the fault lets the
// identical call publish the new version whole.
func TestRouterSwapAllOrNothing(t *testing.T) {
	wantOld := swapRefBody(t, 2, shardTestEdges, "/v1/embed", swapBackendEmbed)
	wantNew := swapRefBody(t, 9, shardTestEdges, "/v1/embed", swapBackendEmbed)
	good := saveSeed(t, 9, "params-1.tgp")
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "params-1-corrupt.tgp")
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the tensor payload, past the
	// envelope header.
	if err := faultfs.FlipBit(bad, int64(len(b))/2*8+3); err != nil {
		t.Fatal(err)
	}
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, ts := mk("")
		ingest(t, ts.URL, shardTestEdges)
		requireBody(t, "pre-swap", ts.URL, "/v1/embed", swapBackendEmbed, wantOld)

		if err := s.SwapParams(redirectFS{FS: checkpoint.OS{}, from: good, to: bad}, good, 1); err == nil {
			t.Fatal("swap of a corrupt checkpoint committed")
		}
		if v := s.ModelVersion(); v != 0 {
			t.Fatalf("version advanced to %d on a failed swap", v)
		}
		for i, eng := range s.cur.Load().backend.Engines() {
			if ev := eng.ParamsVersion(); ev != 0 {
				t.Fatalf("engine %d at version %d after rollback", i, ev)
			}
		}
		requireBody(t, "after rolled-back swap", ts.URL, "/v1/embed", swapBackendEmbed, wantOld)

		// Same call with the fault cleared: publishes the new version.
		if err := s.SwapParams(checkpoint.OS{}, good, 1); err != nil {
			t.Fatal(err)
		}
		if v := s.ModelVersion(); v != 1 {
			t.Fatalf("version %d after commit", v)
		}
		requireBody(t, "post-swap", ts.URL, "/v1/embed", swapBackendEmbed, wantNew)
	})
}

// TestRestartAfterSwapServesCurrentVersion: a version a restart
// publishes AFTER a hot-swap serves the swapped (current) params
// version, not the boot-time one — the restart rebuilds over the model
// of the version it replaces.
func TestRestartAfterSwapServesCurrentVersion(t *testing.T) {
	const poisoned = 3
	wantNew := swapRefBody(t, 9, shardTestEdges, "/v1/embed", swapBackendEmbed)
	path := saveSeed(t, 9, "params-5.tgp")
	forEachBackend(t, func(t *testing.T, m backendMode, _ func(string) (*Server, *httptest.Server)) {
		var armed atomic.Bool
		s, ts := m.newServerWith(t, func(c *Config) {
			c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
				return poisonEmbedder{Embedder: e, node: poisoned, armed: &armed}
			}
		})
		ingest(t, ts.URL, shardTestEdges)
		if _, code, err := postBody(ts.URL, "/v1/embed", swapBackendEmbed); err != nil || code != http.StatusOK {
			t.Fatalf("warm: code %d err %v", code, err)
		}
		if err := s.SwapParams(checkpoint.OS{}, path, 5); err != nil {
			t.Fatal(err)
		}
		armed.Store(true)
		poisonedEmbed(t, m, ts.URL)
		armed.Store(false)
		waitRestarts(t, s, 1)
		for i, eng := range s.cur.Load().backend.Engines() {
			if ev := eng.ParamsVersion(); ev != 5 {
				t.Fatalf("engine %d at version %d, server at %d", i, ev, s.ModelVersion())
			}
		}
		requireBody(t, "after restart", ts.URL, "/v1/embed", swapBackendEmbed, wantNew)
	})
}

// TestRouterSwapDuringTraffic hammers every backend mode with embeds and
// ingests while swapping back and forth between two published
// versions, under the race detector: every response must be bitwise one
// version's — never a mix — and after the last swap the server must
// answer exactly the final params.
func TestRouterSwapDuringTraffic(t *testing.T) {
	wantA := swapRefBody(t, 2, shardTestEdges, "/v1/embed", swapBackendEmbed)
	wantB := swapRefBody(t, 9, shardTestEdges, "/v1/embed", swapBackendEmbed)
	pathA, pathB := saveSeed(t, 2, "params-a.tgp"), saveSeed(t, 9, "params-b.tgp")
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, ts := mk("")
		ingest(t, ts.URL, shardTestEdges)

		stop := make(chan struct{})
		errc := make(chan error, 8)
		hammer := func(f func() error) {
			go func() {
				for {
					select {
					case <-stop:
						errc <- nil
						return
					default:
					}
					if err := f(); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		for g := 0; g < 4; g++ {
			hammer(func() error {
				body, code, err := postBody(ts.URL, "/v1/embed", swapBackendEmbed)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("embed: code %d err %v (%s)", code, err, body)
				}
				if !bytes.Equal(body, wantA) && !bytes.Equal(body, wantB) {
					return errors.New("embed body matches neither version: mixed-version rows")
				}
				return nil
			})
		}
		// Edges strictly after the asked times: invalidation churns
		// while the expected rows stay pinned.
		tm := 2000.0
		hammer(func() error {
			tm += 10
			body, code, err := postBody(ts.URL, "/v1/ingest", ingestRequest{Edges: []edgeJSON{{Src: 2, Dst: 3, Time: tm}}})
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("ingest: code %d err %v (%s)", code, err, body)
			}
			return nil
		})

		version := uint64(0)
		for i := 0; i < 12; i++ {
			version++
			p := pathB
			if version%2 == 0 {
				p = pathA
			}
			if err := s.SwapParams(checkpoint.OS{}, p, version); err != nil {
				t.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		for i := 0; i < 5; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		// 12 swaps: the last version is even, so params A.
		requireBody(t, "converged", ts.URL, "/v1/embed", swapBackendEmbed, wantA)
		if err := s.SwapParams(checkpoint.OS{}, pathB, version+1); err != nil {
			t.Fatal(err)
		}
		requireBody(t, "final", ts.URL, "/v1/embed", swapBackendEmbed, wantB)
	})
}

// slowApply is a backend whose invalidation takes a while, so an
// ingest batch spans many reads: the window in which a version
// published mid-batch could cache rows the batch's later edges change.
type slowApply struct{ backend }

func (b slowApply) Apply(e graph.Edge, res graph.IngestResult) int {
	time.Sleep(500 * time.Microsecond)
	return b.backend.Apply(e, res)
}

// TestServeSwapIngestPublishOrdering pins that a version published
// during an ingest serves nothing the ingest's edges stale: the ingest
// holds the graph's write gate, and the new version's passes wait at
// it. Each round hammers three kinds of request while one swap
// lands: ingests of 32 edges, in order at times below the asked ones
// and late inside the lateness window, and re-asked reads and scores
// at timestamps beyond the stream clock. Once the round is quiet, every
// row and logit the server answers — from what it warmed — must be
// bitwise a fresh server's on the params now serving, over the graph
// as it now is. An ingest that loaded the old version and wrote the
// graph after the new one had cached rows would leave those rows
// uninvalidated, and the fresh server would tell them apart; slowApply
// leaves room for such rows. TestServeSwapEquivalenceUnderLoad cannot
// see that: its ingests land above every asked time.
func TestServeSwapIngestPublishOrdering(t *testing.T) {
	const (
		rounds   = 8
		lateness = 150
		asked    = 1e6 // past every edge time the rounds reach
	)
	paths := map[uint64]string{2: saveSeed(t, 2, "params-a.tgp"), 9: saveSeed(t, 9, "params-b.tgp")}
	var embed embedRequest
	var score scoreRequest
	for v := int32(1); v <= 20; v++ {
		embed.Nodes = append(embed.Nodes, v, v)
		embed.Times = append(embed.Times, asked, asked+1)
		score.Pairs = append(score.Pairs, edgeJSON{Src: v, Dst: v%20 + 1, Time: asked})
	}
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, ts := mk("")
		s.dyn.SetLateness(lateness)
		// Every version serves through slowApply: the boot one, and each
		// one a swap publishes, wrapped before the next swap.
		slow := func() {
			p := *s.cur.Load()
			p.backend = slowApply{p.backend}
			s.cur.Store(&p)
		}
		slow()
		ingest(t, ts.URL, shardTestEdges)
		rng := rand.New(rand.NewSource(5))
		clock := 100.0
		seed := uint64(2)
		for round := 1; round <= rounds; round++ {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			var failed atomic.Pointer[error]
			hammer := func(f func() error) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := f(); err != nil {
							failed.CompareAndSwap(nil, &err)
							return
						}
					}
				}()
			}
			post := func(path string, req any) error {
				body, code, err := postBody(ts.URL, path, req)
				if err != nil || code != http.StatusOK {
					return fmt.Errorf("round %d %s: code %d err %v (%s)", round, path, code, err, body)
				}
				return nil
			}
			hammer(func() error {
				var req ingestRequest
				for range 32 {
					e := edgeJSON{Src: int32(1 + rng.Intn(20)), Dst: int32(1 + rng.Intn(20))}
					if rng.Intn(3) == 0 {
						e.Time = clock - 1 - float64(rng.Intn(lateness))
					} else {
						clock++
						e.Time = clock
					}
					req.Edges = append(req.Edges, e)
				}
				return post("/v1/ingest", req)
			})
			for g := 0; g < 2; g++ {
				hammer(func() error {
					i := 2 * rand.Intn(len(embed.Nodes)/2)
					return post("/v1/embed", embedRequest{Nodes: embed.Nodes[i : i+2], Times: embed.Times[i : i+2]})
				})
			}
			hammer(func() error { return post("/v1/score", score) })

			time.Sleep(3 * time.Millisecond)
			seed = 11 - seed // 2 ↔ 9
			if err := s.SwapParams(checkpoint.OS{}, paths[seed], uint64(round)); err != nil {
				t.Fatal(err)
			}
			slow()
			time.Sleep(3 * time.Millisecond)
			close(stop)
			wg.Wait()
			if err := failed.Load(); err != nil {
				t.Fatal(*err)
			}

			ref := newTestServer(t, swapSeedModel(t, seed), s.dyn, nil)
			refTS := httptest.NewServer(ref.Handler())
			for _, q := range []struct {
				path string
				req  any
			}{{"/v1/embed", embed}, {"/v1/score", score}} {
				want, code, err := postBody(refTS.URL, q.path, q.req)
				if err != nil || code != http.StatusOK {
					t.Fatalf("round %d reference %s: code %d err %v", round, q.path, code, err)
				}
				requireBody(t, fmt.Sprintf("round %d %s after the swap to v%d", round, q.path, round), ts.URL, q.path, q.req, want)
			}
			refTS.Close()
		}
	})
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
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
	s := New(swapSeedModel(t, seed), swapSeedDyn(t), core.OptAll())
	t.Cleanup(func() { s.Close() })
	h := s.Handler()
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
// single-engine when shards == 0, a shard pool otherwise.
func buildSwapServer(t *testing.T, m *tgat.Model, shards int) (*Server, *httptest.Server) {
	t.Helper()
	opt := core.OptAll()
	var (
		s   *Server
		err error
	)
	if shards > 0 {
		s, err = NewSharded(m, swapSeedDyn(t), opt, shard.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		s = New(m, swapSeedDyn(t), opt)
	}
	t.Cleanup(func() { s.Close() })
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

	srv, ts := buildSwapServer(t, swapSeedModel(t, 2), shards)

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
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0)

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
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0)

	dir := t.TempDir()
	stopLoop := srv.StartSwapLoop(SwapConfig{Dir: dir, Interval: 2 * time.Millisecond})
	defer stopLoop()

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
	srv, _ := buildSwapServer(t, swapSeedModel(t, 2), 0)

	tcfg := trainer.DefaultConfig()
	tcfg.Epochs = 1
	tcfg.BatchSize = 16
	dir := t.TempDir()
	stopLoop := srv.StartSwapLoop(SwapConfig{Dir: dir, Interval: 5 * time.Millisecond, Train: true, Trainer: tcfg})
	defer stopLoop()

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

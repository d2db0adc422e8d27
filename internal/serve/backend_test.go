package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/shard"
)

// backendMode is one of the four configurations every handler-level
// contract must hold in: the single core and the shard pool, each with
// and without cross-request batching.
type backendMode struct {
	name    string
	shards  int
	batched bool
}

var backendModes = []backendMode{
	{"unsharded", 0, false},
	{"unsharded+batched", 0, true},
	{"2-shards", 2, false},
	{"2-shards+batched", 2, true},
}

// newServer builds a server in this mode over testModelDyn's fixture.
// snap is where its cache snapshots live ("" for none): the snapshot
// file of a single core, the per-shard snapshot directory of a pool.
func (m backendMode) newServer(t *testing.T, snap string) (*Server, *httptest.Server) {
	t.Helper()
	return m.newServerWith(t, shard.Config{SnapshotDir: snap})
}

// newServerWith is newServer with the rest of the pool's configuration
// (fault injection) chosen by the caller; a single core ignores it.
func (m backendMode) newServerWith(t *testing.T, cfg shard.Config) (*Server, *httptest.Server) {
	t.Helper()
	model, dyn := testModelDyn(t)
	var s *Server
	if m.shards > 0 {
		var err error
		cfg.Shards = m.shards
		s, err = NewSharded(model, dyn, core.OptAll(), cfg)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		s = New(model, dyn, core.OptAll())
	}
	if m.batched {
		s.SetBatching(batcher.Config{Window: 2 * time.Millisecond, MaxBatch: 32})
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// forEachBackend runs f as one subtest per backendMode; mk builds a
// fresh server in the subtest's mode.
func forEachBackend(t *testing.T, f func(t *testing.T, m backendMode, mk func(snap string) (*Server, *httptest.Server))) {
	for _, m := range backendModes {
		t.Run(m.name, func(t *testing.T) {
			f(t, m, func(snap string) (*Server, *httptest.Server) { return m.newServer(t, snap) })
		})
	}
}

// backendScript is a fixed ingest/embed/score sequence: a warm-up, a
// re-ask (the top-layer memo's case), and an in-order append landing
// under the asked time, which must change exactly the rows it reaches.
// It returns the read responses' bodies in order.
func backendScript(t *testing.T, url string) [][]byte {
	t.Helper()
	embed := embedRequest{
		Nodes: []int32{7, 1, 7, 3, 5, 2, 8, 1, 6, 4, 2, 7},
		Times: []float64{90, 90, 90, 95, 95, 90, 95, 90, 95, 95, 90, 90},
	}
	score := scoreRequest{Pairs: []edgeJSON{{Src: 1, Dst: 2, Time: 90}, {Src: 3, Dst: 8, Time: 95}, {Src: 7, Dst: 7, Time: 90}}}
	var bodies [][]byte
	read := func(path string, req any) {
		t.Helper()
		body, code, err := postBody(url, path, req)
		if err != nil || code != 200 {
			t.Fatalf("%s: code %d err %v (%s)", path, code, err, body)
		}
		bodies = append(bodies, body)
	}
	ingest(t, url, shardTestEdges)
	read("/v1/embed", embed)
	read("/v1/score", score)
	read("/v1/embed", embed)
	ingest(t, url, []edgeJSON{{Src: 7, Dst: 3, Time: 85}})
	read("/v1/embed", embed)
	read("/v1/score", score)
	return bodies
}

// TestBackendScriptBitwiseAcrossModes: which backend computes a
// response is not observable in it.
func TestBackendScriptBitwiseAcrossModes(t *testing.T) {
	got := map[string][][]byte{}
	forEachBackend(t, func(t *testing.T, m backendMode, mk func(string) (*Server, *httptest.Server)) {
		_, ts := mk("")
		got[m.name] = backendScript(t, ts.URL)
	})
	want := got[backendModes[0].name]
	if bytes.Equal(want[2], want[3]) {
		t.Fatal("the append under the asked time changed no embed row: the script exercises no invalidation")
	}
	for _, m := range backendModes[1:] {
		for i := range want {
			if !bytes.Equal(got[m.name][i], want[i]) {
				t.Errorf("%s: response %d differs from %s\n got: %s\nwant: %s", m.name, i, backendModes[0].name, got[m.name][i], want[i])
			}
		}
	}
}

// metricFamilies scrapes /metrics and checks the exposition parses:
// every sample is `name[{labels}] <float>` and belongs to a family a
// HELP and a TYPE line announced. It returns the family names.
func metricFamilies(t *testing.T, url string) map[string]bool {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	help, typ, sampled := map[string]bool{}, map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP ") && len(f) >= 4:
			help[f[2]] = true
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			typ[f[2]] = f[3]
		case len(f) == 2:
			name, _, _ := strings.Cut(f[0], "{")
			if _, err := strconv.ParseFloat(f[1], 64); err != nil {
				t.Errorf("sample %q: value does not parse: %v", line, err)
			}
			family := name
			if typ[family] == "" { // a summary's _sum / _count series
				family = strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
			}
			if !help[family] || typ[family] == "" {
				t.Errorf("sample %q has no HELP/TYPE for family %q", line, family)
			}
			sampled[family] = true
		default:
			t.Errorf("unparseable exposition line %q", line)
		}
	}
	for family := range typ {
		if !sampled[family] {
			t.Errorf("family %q is announced but has no sample", family)
		}
	}
	return sampled
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBackendMetricsAndStatsShape: /metrics parses and /v1/stats has
// the same top-level keys in every mode. The only differences are the
// ones the mode names — the batching section and tgopt_batch_* families
// exactly when batching is on (sharded or not: they used to vanish
// under -shards), the shards section and shard-health families exactly
// when there is a pool — and shards.batching is the top-level section's
// counters. The wire section agrees with the tgopt_wire_* series and,
// sitting above the backend, reads the same in every mode; each cached
// layer's index_records agrees with its tgopt_cache_layer_index_records.
func TestBackendMetricsAndStatsShape(t *testing.T) {
	isBatch := func(f string) bool { return strings.HasPrefix(f, "tgopt_batch_") }
	isShard := func(f string) bool {
		for _, p := range []string{"tgopt_shard", "tgopt_routed_around", "tgopt_partial_responses", "tgopt_degraded_targets"} {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
		return false
	}
	common := map[string]string{} // mode -> the families / keys every mode must share
	forEachBackend(t, func(t *testing.T, m backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, ts := mk("")
		backendScript(t, ts.URL)

		var rest []string
		batch, pool := 0, 0
		for _, f := range sortedKeys(metricFamilies(t, ts.URL)) {
			switch {
			case isBatch(f):
				batch++
			case isShard(f):
				pool++
			default:
				rest = append(rest, f)
			}
		}
		if (batch > 0) != m.batched || (m.batched && batch != 7) {
			t.Errorf("%d tgopt_batch_* families with batched=%v, want 7 exactly when batched", batch, m.batched)
		}
		if (pool > 0) != (m.shards > 0) {
			t.Errorf("%d shard-health families with %d shards", pool, m.shards)
		}

		var st map[string]json.RawMessage
		getJSON(t, ts.URL+"/v1/stats", &st)
		if _, ok := st["batching"]; ok != m.batched {
			t.Errorf("stats has batching section = %v with batched=%v", ok, m.batched)
		}
		if _, ok := st["shards"]; ok != (m.shards > 0) {
			t.Errorf("stats has shards section = %v with %d shards", ok, m.shards)
		}
		if m.batched {
			var top batchStats
			if err := json.Unmarshal(st["batching"], &top); err != nil {
				t.Fatal(err)
			}
			if top.Enqueued == 0 || top.Batches == 0 || top.MaxBatch != 32 || top.WindowMs != 2 {
				t.Errorf("batching section not live: %+v", top)
			}
			if m.shards > 0 {
				var pool shard.RouterStats
				if err := json.Unmarshal(st["shards"], &pool); err != nil {
					t.Fatal(err)
				}
				if b := pool.Batching; b == nil || b.Enqueued != top.Enqueued || b.Coalesced != top.Coalesced ||
					b.Batches != top.Batches || b.Panics != top.Panics {
					t.Errorf("shards.batching %+v differs from batching %+v", b, top)
				}
			}
		}
		// hit_rate is the cache section's hits per lookup: no engine
		// feeds a per-pass tracker.
		var hitRate float64
		var cache core.CacheStats
		if err := json.Unmarshal(st["hit_rate"], &hitRate); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(st["cache"], &cache); err != nil {
			t.Fatal(err)
		}
		if cache.Lookups == 0 || hitRate != float64(cache.Hits)/float64(cache.Lookups) {
			t.Errorf("hit_rate %v, cache hits %d / lookups %d", hitRate, cache.Hits, cache.Lookups)
		}
		for i, eng := range s.backend.Engines() {
			if eng.Options().HitRate != nil {
				t.Errorf("engine %d records into a HitRate tracker", i)
			}
		}
		var wire wireStats
		if err := json.Unmarshal(st["wire"], &wire); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		rows, _ := strconv.ParseInt(afterLine(buf.String(), "tgopt_wire_rows_total "), 10, 64)
		hits, _ := strconv.ParseInt(afterLine(buf.String(), "tgopt_wire_row_text_hits_total "), 10, 64)
		if (wireStats{rows, hits}) != wire {
			t.Errorf("/metrics wire rows %d, row-text hits %d; /v1/stats wire %+v", rows, hits, wire)
		}
		if wire.Rows != 36 || wire.RowTextHits < 12 {
			t.Errorf("wire %+v after three 12-row embeds, the second a repeat of the first: want 36 rows, >= 12 hits", wire)
		}
		var layers []core.LayerCacheStats
		if err := json.Unmarshal(st["cache_layers"], &layers); err != nil || len(layers) == 0 {
			t.Fatalf("cache_layers %s: %v", st["cache_layers"], err)
		}
		for _, ls := range layers {
			series := afterLine(buf.String(), fmt.Sprintf("tgopt_cache_layer_index_records{layer=%q} ", strconv.Itoa(ls.Layer)))
			if n, err := strconv.Atoi(series); err != nil || n != ls.IndexRecords || n == 0 {
				t.Errorf("layer %d: /metrics index records %q, /v1/stats %d; want equal and nonzero", ls.Layer, series, ls.IndexRecords)
			}
		}

		delete(st, "batching")
		delete(st, "shards")
		common[m.name] = strings.Join(rest, " ") + "\n" + strings.Join(sortedKeys(st), " ") + "\n" + string(st["wire"])
	})
	for _, m := range backendModes[1:] {
		if common[m.name] != common[backendModes[0].name] {
			t.Errorf("%s and %s differ beyond the batching and shards sections:\n%s\n--\n%s",
				m.name, backendModes[0].name, common[m.name], common[backendModes[0].name])
		}
	}
}

// hookFS runs hook before every Open: a params read that does work of
// its own.
type hookFS struct {
	checkpoint.FS
	hook func()
}

func (h hookFS) Open(name string) (io.ReadCloser, error) {
	h.hook()
	return h.FS.Open(name)
}

// TestBackendSwapPrepareRunsOutsideTheRequestGate: reading and parsing
// a published checkpoint (a file read and CRC check) must not stall
// traffic — only the commit takes the request gate. The params read
// issues an embed through the handler and needs its 200 before the
// read proceeds; with the gate held around the parse that embed can
// only finish after the hook gives up.
func TestBackendSwapPrepareRunsOutsideTheRequestGate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, _ := mk("")
		path := filepath.Join(t.TempDir(), "params-1.tgp")
		if err := swapSeedModel(t, 3).SaveParamsFS(checkpoint.OS{}, path); err != nil {
			t.Fatal(err)
		}
		served := make(chan int, 1)
		fsys := hookFS{FS: checkpoint.OS{}, hook: func() {
			code := make(chan int, 1)
			go func() {
				code <- recordJSON(t, s.Handler(), http.MethodPost, "/v1/embed",
					embedRequest{Nodes: swapQueryNodes, Times: swapQueryTimes}, nil)
			}()
			select {
			case c := <-code:
				served <- c
			case <-time.After(2 * time.Second):
				served <- 0
			}
		}}
		if err := s.SwapParams(fsys, path, 1); err != nil {
			t.Fatal(err)
		}
		if code := <-served; code != http.StatusOK {
			t.Fatalf("embed issued during the params read: status %d (0 = still blocked after 2s), want 200", code)
		}
		if v := s.ModelVersion(); v != 1 {
			t.Fatalf("version after swap = %d, want 1", v)
		}
	})
}

// TestBackendOneModelVersion: the params version is a property of the
// shared model, so every place that reports it — Server.ModelVersion,
// /v1/stats model.version and shards.model_version, tgopt_model_version
// and each live engine — reads one number: at boot, after a swap, and
// after the supervisor has rebuilt crashed shards on the swapped model.
func TestBackendOneModelVersion(t *testing.T) {
	const poisoned = 3
	forEachBackend(t, func(t *testing.T, m backendMode, _ func(string) (*Server, *httptest.Server)) {
		var armed atomic.Bool
		s, ts := m.newServerWith(t, shard.Config{
			WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
				return poisonEmbedder{Embedder: e, node: poisoned, armed: &armed}
			},
		})
		ingest(t, ts.URL, shardTestEdges)
		check := func(when string, want uint64) {
			t.Helper()
			var sr statsResponse
			getJSON(t, ts.URL+"/v1/stats", &sr)
			got := map[string]uint64{"Server.ModelVersion": s.ModelVersion(), "stats model.version": sr.Model.Version}
			if sr.Shards != nil {
				got["stats shards.model_version"] = sr.Shards.ModelVersion
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, "tgopt_model_version "); ok {
					f, _ := strconv.ParseFloat(v, 64)
					got["tgopt_model_version"] = uint64(f)
				}
			}
			engs := s.backend.Engines()
			if len(engs) != max(m.shards, 1) {
				t.Fatalf("%s: %d live engines, want %d", when, len(engs), max(m.shards, 1))
			}
			for i, eng := range engs {
				got["engine "+strconv.Itoa(i)] = eng.ParamsVersion()
			}
			if _, ok := got["tgopt_model_version"]; !ok {
				t.Fatalf("%s: /metrics has no tgopt_model_version", when)
			}
			for where, v := range got {
				if v != want {
					t.Errorf("%s: %s = %d, want %d (all: %v)", when, where, v, want, got)
				}
			}
		}
		swapTo := func(seed, version uint64) {
			t.Helper()
			path := filepath.Join(t.TempDir(), "params.tgp")
			if err := swapSeedModel(t, seed).SaveParamsFS(checkpoint.OS{}, path); err != nil {
				t.Fatal(err)
			}
			if err := s.SwapParams(checkpoint.OS{}, path, version); err != nil {
				t.Fatal(err)
			}
		}
		check("boot", 0)
		swapTo(3, 5)
		check("after swap", 5)

		if r := s.Router(); r != nil {
			// Crash every shard that sees the poisoned target, let the
			// supervisor rebuild them, and ask again.
			armed.Store(true)
			req := embedRequest{Nodes: []int32{1, 2, poisoned, 4}, Times: []float64{90, 90, 90, 90}}
			if _, code, err := postBody(ts.URL, "/v1/embed", req); err != nil || code != http.StatusPartialContent {
				t.Fatalf("poisoned embed: code %d err %v, want 206", code, err)
			}
			armed.Store(false)
			r.WaitRestarts()
			waitForServe(t, 5*time.Second, func() bool {
				var restarts int64
				for _, st := range r.Stats().Shards {
					restarts += st.Restarts
				}
				return restarts > 0 && len(r.Engines()) == m.shards
			})
			check("after supervisor rebuild", 5)
		}
		swapTo(9, 6)
		check("after second swap", 6)
	})
}

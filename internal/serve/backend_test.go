package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// backendMode is one of the four configurations every handler-level
// contract must hold in: the single core and the shard pool, each
// running its passes the two ways a batcher runs them. By default a
// request's pass runs inline on its own goroutine while a core is free,
// as on an unloaded server. "+batched" answers every embedding request
// while each batcher's inline slots are held (runnerHolds), so the
// request's targets queue and run in the pass that drains them on the
// batcher's runner, the path by which cohorts of several requests form
// under load.
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
	return m.newServerWith(t, func(c *Config) { c.CacheFile = snap })
}

// newServerWith is newServer with the rest of the configuration (fault
// injection, logging) chosen by set; the mode's shards override it, and
// "+batched" wraps every engine set's WrapEmbedder returns.
func (m backendMode) newServerWith(t *testing.T, set func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	if !m.batched {
		return testServerWith(t, func(c *Config) {
			set(c)
			c.Shards = max(1, m.shards)
		})
	}
	model, dyn := testModelDyn(t)
	return newRunnerServer(t, model, dyn, func(c *Config) {
		set(c)
		c.Shards = max(1, m.shards)
	})
}

// newRunnerServer is newTestServer over m and dyn, served through
// runnerHolds: it wraps every engine set's WrapEmbedder returns.
func newRunnerServer(t *testing.T, m *tgat.Model, dyn *graph.Dynamic, set func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	h := &runnerHolds{t: t}
	s := newTestServer(t, m, dyn, func(c *Config) {
		set(c)
		wrap := c.WrapEmbedder
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			if wrap != nil {
				e = wrap(id, e)
			}
			return heldEmbedder{Embedder: e, holds: &h.holds}
		}
	})
	h.s, h.next = s, s.Handler()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return s, ts
}

// runnerHolds puts the passes of a server's embedding requests on its
// batchers' runners. Requests to /v1/embed and /v1/score pass one at a
// time: before each, every batcher of the serving version runs
// GOMAXPROCS held passes, one per inline slot, so the request's
// targets queue. Once the request has enqueued at a batcher, one of
// that batcher's holds ends, and its end drains the queue on the
// batcher's runner. The other holds end with the request.
type runnerHolds struct {
	t     *testing.T
	s     *Server
	next  http.Handler
	mu    sync.Mutex // one held request at a time
	holds sync.Map   // a hold's node (*int32) -> *hold
}

// hold is one held pass: closed entered once it runs, closed release
// to end it.
type hold struct{ entered, release chan struct{} }

// heldEmbedder parks a hold's pass, known by its node slice, and
// answers it with a row of its own; every other pass reaches the
// engine.
type heldEmbedder struct {
	core.Embedder
	holds *sync.Map
}

func (e heldEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if v, ok := e.holds.Load(&nodes[0]); ok && len(nodes) == 1 {
		h := v.(*hold)
		close(h.entered)
		<-h.release
		return ar.Tensor(1, e.Dim())
	}
	return e.Embedder.EmbedWith(ar, nodes, ts)
}

// start runs one hold on b and returns once its pass runs.
func (h *runnerHolds) start(b *batcher.Batcher, wg *sync.WaitGroup) *hold {
	node := []int32{0}
	hd := &hold{entered: make(chan struct{}), release: make(chan struct{})}
	h.holds.Store(&node[0], hd)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer h.holds.Delete(&node[0])
		b.Embed(context.Background(), node, []float64{0})
	}()
	select {
	case <-hd.entered:
	case <-time.After(5 * time.Second):
		h.t.Errorf("a hold's pass did not start: more holds than inline slots")
	}
	return hd
}

func (h *runnerHolds) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/embed" && r.URL.Path != "/v1/score" {
		h.next.ServeHTTP(w, r)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	type held struct {
		b        *batcher.Batcher
		holds    []*hold
		enqueued int64 // before the request
		drained  int64 // drain flushes before the request
		released bool  // one hold ended once the request enqueued
	}
	var wg sync.WaitGroup
	var bs []*held
	for _, b := range h.s.cur.Load().backend.Batchers() {
		hb := &held{b: b}
		for range runtime.GOMAXPROCS(0) {
			hb.holds = append(hb.holds, h.start(b, &wg))
		}
		st := b.Stats()
		hb.enqueued, hb.drained = st.Enqueued, st.FlushDrain
		bs = append(bs, hb)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.next.ServeHTTP(w, r)
	}()
	for served := false; !served; {
		select {
		case <-done:
			served = true
		case <-time.After(100 * time.Microsecond):
			for _, hb := range bs {
				if !hb.released && hb.b.Stats().Enqueued > hb.enqueued {
					close(hb.holds[0].release)
					hb.released = true
				}
			}
		}
	}
	for _, hb := range bs {
		if hb.released && hb.b.Stats().FlushDrain == hb.drained {
			h.t.Errorf("%s: a batcher took the request's targets, and no drain ran them", r.URL.Path)
		}
		for i, hd := range hb.holds {
			if i > 0 || !hb.released {
				close(hd.release)
			}
		}
	}
	wg.Wait()
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

// TestBackendScoreIsEngineScoreWith: on every backend, /v1/score's
// logits are bitwise Engine.ScoreWith over the same rows: the handler
// runs the affinity head over the pack its params version was built
// with.
func TestBackendScoreIsEngineScoreWith(t *testing.T) {
	pairs := []edgeJSON{{Src: 1, Dst: 2, Time: 90}, {Src: 3, Dst: 8, Time: 95}, {Src: 7, Dst: 7, Time: 90}}
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		s, ts := mk("")
		ingest(t, ts.URL, shardTestEdges)
		body, code, err := postBody(ts.URL, "/v1/score", scoreRequest{Pairs: pairs})
		if err != nil || code != 200 {
			t.Fatalf("score: %d %v %s", code, err, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		nb := len(pairs)
		ns, at := make([]int32, 2*nb), make([]float64, 2*nb)
		for i, p := range pairs {
			ns[i], ns[nb+i], at[i], at[nb+i] = p.Src, p.Dst, p.Time, p.Time
		}
		m := s.cur.Load().model
		eng := core.NewEngine(m, graph.NewDynamicSampler(s.dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0), core.Options{})
		h, d := eng.Embed(ns, at), m.Cfg.NodeDim
		want := eng.ScoreWith(nil, tensor.FromSlice(h.Data()[:nb*d], nb, d), tensor.FromSlice(h.Data()[nb*d:], nb, d)).Data()
		for i := range pairs {
			if math.Float64bits(sr.Logits[i]) != math.Float64bits(float64(want[i])) {
				t.Fatalf("pair %d: logit %v, Engine.ScoreWith %v", i, sr.Logits[i], want[i])
			}
		}
	})
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

// scrapeBoth reads /v1/stats and then /metrics from one server and
// holds them to metricTable: every row's samples are the /v1/stats
// fields it names, units converted, and /metrics carries no other
// sample. Only tgopt_requests_total moves between the two reads, by the
// /metrics request itself. No figure is reported twice: the shards
// section carries neither batching nor model_version, and the top level
// no partial_responses. It returns both reads, the /metrics samples
// keyed by name and labels.
func scrapeBoth(t *testing.T, url string) (statsResponse, map[string]float64) {
	t.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	stats := get("/v1/stats")
	var snap map[string]any
	var sr statsResponse
	if err := errors.Join(json.Unmarshal(stats, &snap), json.Unmarshal(stats, &sr)); err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(string(get("/metrics"))), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			got[f[0]], _ = strconv.ParseFloat(f[1], 64)
		}
	}

	want := map[string]float64{}
	for _, m := range metricTable {
		cols := make([][]sample, len(m.fields))
		for i, f := range m.fields {
			if cols[i] = samples(snap, f); len(cols[i]) != len(cols[0]) {
				t.Fatalf("%s: field %s reads %d samples, its first field %d", m.name, f, len(cols[i]), len(cols[0]))
			}
		}
		for j, s := range cols[0] {
			if len(cols) == 1 {
				want[m.name+braced(s.labels)] = s.value
				continue
			}
			for i, q := range []string{"0.5", "0.9", "0.99"} {
				want[m.name+"{"+joinLabel(s.labels, "quantile", q)+"}"] = cols[i][j].value
			}
			want[m.name+"_sum"+braced(s.labels)] = cols[3][j].value
			want[m.name+"_count"+braced(s.labels)] = cols[4][j].value
		}
	}
	want["tgopt_requests_total"]++
	for _, k := range sortedKeys(want) {
		if v, ok := got[k]; !ok || v != want[k] {
			t.Errorf("/metrics %s = %v (present %v), /v1/stats field says %v", k, v, ok, want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			t.Errorf("/metrics sample %s is no metricTable row's", k)
		}
	}

	// The units and the one negation, computed here from the typed read.
	direct := map[string]float64{
		"tgopt_wire_rows_total": float64(sr.Wire.Rows),
		`tgopt_stage_latency_seconds{stage="attention",quantile="0.9"}`: sr.Stages["attention"].P90us / 1e6,
		`tgopt_stage_latency_seconds_sum{stage="attention"}`:            sr.Stages["attention"].TotalMs / 1e3,
		`tgopt_stage_latency_seconds_count{stage="attention"}`:          float64(sr.Stages["attention"].Count),
	}
	for _, l := range sr.CacheLayers {
		direct[fmt.Sprintf(`tgopt_cache_layer_index_records{layer="%d"}`, l.Layer)] = float64(l.IndexRecords)
	}
	direct[`tgopt_batch_queue_wait_seconds{quantile="0.9"}`] = sr.Batching.QueueWaitP90 / 1e6
	direct["tgopt_batch_queue_wait_seconds_sum"] = sr.Batching.QueueWaitSum / 1e6
	direct["tgopt_batch_occupancy_count"] = float64(sr.Batching.OccupancyCount)
	if p := sr.Shards; p != nil {
		direct["tgopt_shards"] = float64(len(p.Shards))
		for _, sh := range p.Shards {
			up := 1.0
			if sh.Crashed {
				up = 0
			}
			direct[fmt.Sprintf(`tgopt_shard_up{shard="%d"}`, sh.ID)] = up
		}
	}
	for k, v := range direct {
		if got[k] != v {
			t.Errorf("/metrics %s = %v, want %v", k, got[k], v)
		}
	}

	if _, ok := snap["partial_responses"]; ok {
		t.Error("/v1/stats repeats partial_responses at the top level")
	}
	if pool, ok := snap["shards"].(map[string]any); ok {
		for _, k := range []string{"batching", "model_version"} {
			if _, ok := pool[k]; ok {
				t.Errorf("/v1/stats shards section repeats %s", k)
			}
		}
	}
	return sr, got
}

// TestBackendMetricsAndStatsShape: /metrics parses and /v1/stats has
// the same top-level keys in every mode, the live batching section and
// all seven tgopt_batch_* families included. The only differences are
// the ones the mode names — the shards section and shard-health
// families exactly when there is a pool, and whether passes drained on
// the runner. Every /metrics sample is the /v1/stats field
// its metricTable row names (scrapeBoth). The wire section, sitting
// above the backend, reads the same in every mode, and every cached
// layer holds index records. And /metrics keeps README's contract:
// every family some backend emits is named in README.md, and every name
// README.md lists is emitted.
func TestBackendMetricsAndStatsShape(t *testing.T) {
	isShard := func(f string) bool {
		for _, p := range []string{"tgopt_shard", "tgopt_routed_around", "tgopt_partial_responses", "tgopt_degraded_targets"} {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
		return false
	}
	common := map[string]string{} // mode -> the families / keys every mode must share
	emitted := map[string]bool{}  // every family any mode emits
	forEachBackend(t, func(t *testing.T, m backendMode, mk func(string) (*Server, *httptest.Server)) {
		_, ts := mk("")
		backendScript(t, ts.URL)

		var rest []string
		batch, pool := 0, 0
		for _, f := range sortedKeys(metricFamilies(t, ts.URL)) {
			emitted[f] = true
			if strings.HasPrefix(f, "tgopt_batch_") {
				batch++
			}
			if isShard(f) {
				pool++
				continue
			}
			rest = append(rest, f)
		}
		if batch != 7 {
			t.Errorf("%d tgopt_batch_* families, want 7", batch)
		}
		if (pool > 0) != (m.shards > 0) {
			t.Errorf("%d shard-health families with %d shards", pool, m.shards)
		}

		var st map[string]json.RawMessage
		getJSON(t, ts.URL+"/v1/stats", &st)
		if _, ok := st["shards"]; ok != (m.shards > 0) {
			t.Errorf("stats has shards section = %v with %d shards", ok, m.shards)
		}
		// The configuration is reported in one place: "config", never
		// in the batching section.
		var cfg configStats
		if err := json.Unmarshal(st["config"], &cfg); err != nil {
			t.Fatal(err)
		}
		if cfg.Shards != max(1, m.shards) || cfg.Engine != core.OptAll() {
			t.Errorf("config section %+v, want mode %+v over core.OptAll()", cfg, m)
		}
		// The batcher has no settings, and no trigger but two.
		for _, key := range []string{"max_batch", "window_ms", "flush_size", "flush_window"} {
			if bytes.Contains(st["config"], []byte(key)) || bytes.Contains(st["batching"], []byte(key)) {
				t.Errorf("/v1/stats reports %s: config %s, batching %s", key, st["config"], st["batching"])
			}
		}
		var top batchStats
		if err := json.Unmarshal(st["batching"], &top); err != nil {
			t.Fatal(err)
		}
		if top.Enqueued == 0 || top.Batches == 0 || top.FlushIdle == 0 || (top.FlushDrain > 0) != m.batched {
			t.Errorf("batching section %+v: want live passes, idle-flushed, and drained on the runner exactly in +batched", top)
		}
		// hit_rate is the cache section's hits per lookup.
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
		sr, _ := scrapeBoth(t, ts.URL)
		if wire := sr.Wire; wire.Rows != 36 || wire.RowTextHits < 12 {
			t.Errorf("wire %+v after three 12-row embeds, the second a repeat of the first: want 36 rows, >= 12 hits", wire)
		}
		if len(sr.CacheLayers) == 0 {
			t.Fatal("no cache_layers section")
		}
		for _, ls := range sr.CacheLayers {
			if ls.IndexRecords == 0 {
				t.Errorf("layer %d holds no index records", ls.Layer)
			}
		}

		delete(st, "shards")
		common[m.name] = strings.Join(rest, " ") + "\n" + strings.Join(sortedKeys(st), " ") + "\n" + string(st["wire"])
	})
	for _, m := range backendModes[1:] {
		if common[m.name] != common[backendModes[0].name] {
			t.Errorf("%s and %s differ beyond the shards section:\n%s\n--\n%s",
				m.name, backendModes[0].name, common[m.name], common[backendModes[0].name])
		}
	}
	checkReadmeMetrics(t, emitted)
}

// checkReadmeMetrics holds README.md's metric names to the emitted
// families both ways. A README name ending in * is a prefix; a name
// with a _sum or _count suffix documents its summary family.
func checkReadmeMetrics(t *testing.T, emitted map[string]bool) {
	t.Helper()
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented, prefixes := map[string]bool{}, []string{}
	for _, name := range regexp.MustCompile(`tgopt_[a-z0-9_]*\*?`).FindAllString(string(readme), -1) {
		if p, ok := strings.CutSuffix(name, "*"); ok {
			prefixes = append(prefixes, p)
			continue
		}
		documented[name] = true
		documented[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")] = true
	}
	named := func(f string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
		return documented[f]
	}
	for _, f := range sortedKeys(emitted) {
		if !named(f) {
			t.Errorf("/metrics emits %s, which README.md does not name", f)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !emitted[name] && !emitted[strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")] {
			t.Errorf("README.md names %s, which no backend emits", name)
		}
	}
	for _, p := range prefixes {
		n := 0
		for f := range emitted {
			if strings.HasPrefix(f, p) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("README.md names %s*, which matches no emitted family", p)
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
// a published checkpoint (a file read and CRC check) and building the
// new version's backend must not stall traffic — a swap takes no lock a
// request waits on before its one publish. The params read and the
// backend build each issue an embed through the handler and need its
// 200 before they proceed; with a lock held around either, that embed
// could only finish after the hook gives up.
func TestBackendSwapPrepareRunsOutsideTheRequestGate(t *testing.T) {
	forEachBackend(t, func(t *testing.T, m backendMode, _ func(string) (*Server, *httptest.Server)) {
		// The backend build wraps each engine: once armed, the first
		// wrap runs the build's hook.
		var armed atomic.Bool
		var buildHook sync.Once
		var hook func()
		s, _ := m.newServerWith(t, func(c *Config) {
			c.WrapEmbedder = func(_ int, e core.Embedder) core.Embedder {
				if armed.Load() {
					buildHook.Do(hook)
				}
				return e
			}
		})
		path := filepath.Join(t.TempDir(), "params-1.tgp")
		if err := swapSeedModel(t, 3).SaveParamsFS(checkpoint.OS{}, path); err != nil {
			t.Fatal(err)
		}
		served := make(chan int, 2)
		hook = func() {
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
		}
		armed.Store(true)
		if err := s.SwapParams(hookFS{FS: checkpoint.OS{}, hook: hook}, path, 1); err != nil {
			t.Fatal(err)
		}
		for _, during := range []string{"the params read", "the backend build"} {
			if code := <-served; code != http.StatusOK {
				t.Fatalf("embed issued during %s: status %d (0 = still blocked after 2s), want 200", during, code)
			}
		}
		if v := s.ModelVersion(); v != 1 {
			t.Fatalf("version after swap = %d, want 1", v)
		}
	})
}

// TestBackendOneModelVersion: the params version is a property of the
// published model, so every place that reports it — Server.ModelVersion,
// /v1/stats model.version, tgopt_model_version and each live engine —
// reads one number: at boot, after a swap, and after the supervisor has
// rebuilt crashed shards on the swapped model. Each scrape's /metrics is
// its /v1/stats (scrapeBoth), and a swap restarts the per-version
// counters (the engines' and batchers') while the since-boot ones
// (ingested, swaps) carry on.
func TestBackendOneModelVersion(t *testing.T) {
	const poisoned = 3
	forEachBackend(t, func(t *testing.T, m backendMode, _ func(string) (*Server, *httptest.Server)) {
		var armed atomic.Bool
		s, ts := m.newServerWith(t, func(c *Config) {
			c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
				return poisonEmbedder{Embedder: e, node: poisoned, armed: &armed}
			}
		})
		ingest(t, ts.URL, shardTestEdges)
		// check returns the scrape's /metrics samples.
		check := func(when string, want uint64) map[string]float64 {
			t.Helper()
			sr, metrics := scrapeBoth(t, ts.URL)
			got := map[string]uint64{"Server.ModelVersion": s.ModelVersion(), "stats model.version": sr.Model.Version}
			if v, ok := metrics["tgopt_model_version"]; ok {
				got["tgopt_model_version"] = uint64(v)
			}
			engs := s.cur.Load().backend.Engines()
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
			return metrics
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
		if _, code, err := postBody(ts.URL, "/v1/embed", swapBackendEmbed); err != nil || code != http.StatusOK {
			t.Fatalf("embed: code %d err %v", code, err)
		}
		if check("before swap", 0)["tgopt_cache_lookups_total"] == 0 {
			t.Fatal("the embed looked nothing up: the per-version check below would be vacuous")
		}
		swapTo(3, 5)
		metrics := check("after swap", 5)
		for _, name := range []string{"tgopt_cache_lookups_total", "tgopt_top_memo_lookups_total", "tgopt_cache_items"} {
			if metrics[name] != 0 {
				t.Errorf("after swap: %s = %g, want 0 on the new version", name, metrics[name])
			}
		}
		if metrics["tgopt_ingested_total"] != float64(len(shardTestEdges)) || metrics["tgopt_model_swaps_total"] != 1 {
			t.Errorf("after swap: ingested %g, swaps %g: since-boot counters restarted", metrics["tgopt_ingested_total"], metrics["tgopt_model_swaps_total"])
		}

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

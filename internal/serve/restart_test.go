package serve

import (
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/tensor"
)

// countingEmbedder counts the passes that reach it and panics while
// armed.
type countingEmbedder struct {
	core.Embedder
	calls *atomic.Int64
	armed *atomic.Bool
}

func (e countingEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	e.calls.Add(1)
	if e.armed.Load() {
		panic("injected core fault")
	}
	return e.Embedder.EmbedWith(ar, nodes, ts)
}

// TestServeCorePanicRestartsFromCacheFile drives a single core's
// restart over HTTP. A pass that panics answers its request 503 and
// takes the core down: it is never called again, an embed meanwhile is
// a 503 with Retry-After, and /readyz reads 503, until the server
// publishes a replacement — built over the same model, warmed from
// CacheFile — whose answer is bitwise the reference. The replacement's
// first build panics, and the restart retries it.
func TestServeCorePanicRestartsFromCacheFile(t *testing.T) {
	req := embedRequest{Nodes: []int32{1, 2, 3, 4}, Times: []float64{90, 90, 90, 90}}
	_, off := testServer(t)
	ingest(t, off.URL, shardTestEdges)
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reference: code %d err %v", code, err)
	}

	var armed, holdBuild, failBuild atomic.Bool
	var builds, failed atomic.Int32
	var calls [2]atomic.Int64 // passes reaching the boot core and its replacement
	release := make(chan struct{})
	releaseBuild := sync.OnceFunc(func() { close(release) })
	s, ts := testServerWith(t, func(c *Config) {
		c.CacheFile = filepath.Join(t.TempDir(), "cache.tgc")
		c.WrapEmbedder = func(_ int, e core.Embedder) core.Embedder {
			gen := min(builds.Add(1), 2) - 1
			if holdBuild.Load() {
				<-release
			}
			if failBuild.Swap(false) {
				failed.Add(1)
				panic("injected build fault")
			}
			return countingEmbedder{Embedder: e, calls: &calls[gen], armed: &armed}
		}
	})
	t.Cleanup(releaseBuild) // before the server's Close, which waits out the restart
	s.Start()
	ingest(t, ts.URL, shardTestEdges)
	requireBody(t, "before the panic", ts.URL, "/v1/embed", req, want)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	boot := s.Engine()

	holdBuild.Store(true)
	failBuild.Store(true)
	armed.Store(true)
	if body, code, err := postBody(ts.URL, "/v1/embed", req); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("embed whose pass panics: code %d err %v (%s), want 503", code, err, body)
	}
	armed.Store(false)
	passes := calls[0].Load()
	resp, body := post(t, ts.URL+"/v1/embed", req)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("embed on the down core = %d (%s), want 503 with Retry-After", resp.StatusCode, body)
	}
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with the core down = %d, want 503", code)
	}
	if n := calls[0].Load() - passes; n != 0 {
		t.Fatalf("the down core was called %d more times", n)
	}

	releaseBuild()
	waitRestarts(t, s, 1)
	if code := getCode(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after the replacement = %d, want 200", code)
	}
	if eng := s.Engine(); eng == boot || eng.CacheLen() == 0 {
		t.Fatalf("the replacement: same engine %v, %d rows warmed; want a fresh engine warmed from CacheFile", eng == boot, eng.CacheLen())
	}
	requireBody(t, "after the restart", ts.URL, "/v1/embed", req, want)
	if calls[0].Load() != passes || calls[1].Load() == 0 {
		t.Fatalf("passes: boot core %d more, replacement %d; want 0 and some", calls[0].Load()-passes, calls[1].Load())
	}
	var sr statsResponse
	getJSON(t, ts.URL+"/v1/stats", &sr)
	if sr.Restarts != 1 || sr.Unavailable != 2 || failed.Load() != 1 {
		t.Fatalf("restarts = %d, unavailable = %d, failed builds = %d; want 1, 2 and 1", sr.Restarts, sr.Unavailable, failed.Load())
	}
}

// TestServeRestartWarmAndPublishShareTheGate: a restart warms its
// version from CacheFile and publishes it under one hold of the write
// gate's read side. An ingest that arrives while the warm is done but
// the publish is not waits for the hold, and then invalidates on the
// new version: the row it changes is served fresh, bitwise the
// reference's. Were the publish outside the hold, the ingest would land
// on the down version, and the warmed row would stay stale.
func TestServeRestartWarmAndPublishShareTheGate(t *testing.T) {
	req := embedRequest{Nodes: []int32{1, 2, 3, 4}, Times: []float64{90, 90, 90, 90}}
	extra := []edgeJSON{{Src: 1, Dst: 4, Time: 85}}
	_, off := testServer(t)
	ingest(t, off.URL, shardTestEdges)
	stale, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reference: code %d err %v", code, err)
	}
	ingest(t, off.URL, extra)
	want, code, err := postBody(off.URL, "/v1/embed", req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("reference: code %d err %v", code, err)
	}
	if string(want) == string(stale) {
		t.Fatal("the extra edge changes no asked row: the test checks nothing")
	}

	var armed, blockWarm atomic.Bool
	var calls atomic.Int64
	warmed, release := make(chan struct{}), make(chan struct{})
	releaseWarm := sync.OnceFunc(func() { close(release) })
	s, ts := testServerWith(t, func(c *Config) {
		c.CacheFile = filepath.Join(t.TempDir(), "cache.tgc")
		c.WrapEmbedder = func(_ int, e core.Embedder) core.Embedder {
			return countingEmbedder{Embedder: e, calls: &calls, armed: &armed}
		}
		c.Logf = func(format string, _ ...any) {
			if strings.HasPrefix(format, "warm-started") && blockWarm.Swap(false) {
				close(warmed)
				<-release
			}
		}
	})
	t.Cleanup(releaseWarm) // before the server's Close, which waits out the restart
	s.Start()
	ingest(t, ts.URL, shardTestEdges)
	requireBody(t, "before the panic", ts.URL, "/v1/embed", req, stale)
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}

	blockWarm.Store(true)
	armed.Store(true)
	if _, code, err := postBody(ts.URL, "/v1/embed", req); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("embed whose pass panics: code %d err %v, want 503", code, err)
	}
	armed.Store(false)
	select {
	case <-warmed:
	case <-time.After(5 * time.Second):
		t.Fatal("the restart never warmed")
	}
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		postBody(ts.URL, "/v1/ingest", ingestRequest{Edges: extra})
	}()
	select {
	case <-ingested:
		t.Fatal("an ingest landed between the restart's warm and its publish")
	case <-time.After(200 * time.Millisecond):
	}
	releaseWarm()
	<-ingested
	waitRestarts(t, s, 1)
	requireBody(t, "after the restart", ts.URL, "/v1/embed", req, want)
}

package serve

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// stubWriter is a reusable http.ResponseWriter: its header map is
// cleared, not replaced, between requests, and the body goes into a
// reused buffer, so an allocation count over it is the server's own.
type stubWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *stubWriter) Header() http.Header { return w.h }
func (w *stubWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *stubWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *stubWriter) reset() {
	clear(w.h)
	w.code, w.body = 0, w.body[:0]
}

// replay serves one POST of body to path through h, reusing the
// request, its body reader and the writer.
type replay struct {
	h   http.Handler
	w   *stubWriter
	r   *http.Request
	rd  *bytes.Reader
	raw []byte
}

func newReplay(h http.Handler, path string, body []byte) *replay {
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, path, nil)
	r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
	return &replay{h: h, w: &stubWriter{h: make(http.Header)}, r: r, rd: rd, raw: body}
}

func (p *replay) serve() {
	p.rd.Reset(p.raw)
	p.w.reset()
	p.h.ServeHTTP(p.w, p.r)
}

// TestServeRequestAllocs pins what the middleware plus handler allocate
// on warmed /v1/embed, /v1/score and /v1/ingest requests, as serve-read
// runs them: every row answered by the top-layer memo, every row text
// by the row-text memo, every body in the canonical shape. Each read is
// the batcher's three (a cohort, its channel, the result slab: a lone
// request's nodes and times are the cohort's) and the Content-Length
// value (its string and its []string); the ingest reply is under 100
// bytes, whose decimal strconv does not allocate, and its edges are all
// dropped.
func TestServeRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m, dyn := testModelDyn(t)
	h := newTestServer(t, m, dyn, nil).Handler()
	seed := newReplay(h, "/v1/ingest", []byte(`{"edges":[{"src":1,"dst":2,"time":10},{"src":3,"dst":4,"time":20},{"src":2,"dst":5,"time":30}]}`))
	seed.serve()
	if seed.w.code != http.StatusOK {
		t.Fatalf("seed ingest: %d %s", seed.w.code, seed.w.body)
	}
	edges := `{"edges":[{"src":1,"dst":2,"time":10}` + strings.Repeat(`,{"src":1,"dst":2,"time":10,"idx":7}`, 31) + "]}"
	for _, c := range []struct {
		path, body string
		want       float64
	}{
		{"/v1/embed", `{"nodes":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"times":[40,40,40,40,40,40,40,40,40,40,40,40,40,40,40,40.0]}`, 5},
		{"/v1/score", `{"pairs":[{"src":1,"dst":9,"time":40},{"src":2,"dst":10,"time":40},{"src":3,"dst":11,"time":40},{"src":4,"dst":12,"time":40},{"src":5,"dst":13,"time":40},{"src":6,"dst":14,"time":40},{"src":7,"dst":15,"time":40},{"src":8,"dst":16,"time":4e1}]}`, 5},
		{"/v1/ingest", edges, 1},
	} {
		p := newReplay(h, c.path, []byte(c.body))
		for i := 0; i < 3; i++ {
			p.serve()
		}
		if p.w.code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, p.w.code, p.w.body)
		}
		if got := testing.AllocsPerRun(200, p.serve); got != c.want {
			t.Errorf("%s: %v allocs per request, want %v", c.path, got, c.want)
		}
	}
}

// TestServeBufferPoolHygiene: a pooled response buffer carries nothing
// from the response it held before — a panic-500 after a 206 has none of
// its header or body bytes and the right Content-Length — and the header
// values handed to an earlier response's writer are never written to
// again. A buffer or request grown past its cap, or a request whose
// slices a backend may still read, is not pooled.
func TestServeBufferPoolHygiene(t *testing.T) {
	log.SetOutput(io.Discard) // the recovery stack trace
	defer log.SetOutput(nil)
	s, _ := testServer(t)
	var held *bufferedResponse
	h := s.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held = w.(*bufferedResponse)
		switch r.URL.Path {
		case "/partial":
			w.Header().Set("X-Stale", "206")
			w.Header()["Content-Type"] = jsonContentType
			w.WriteHeader(http.StatusPartialContent)
			io.WriteString(w, `{"embeddings":[null],"partial":true,"degraded":[0]}`+"\n")
		case "/big":
			w.Write(make([]byte, maxPooledBody+1))
		default:
			io.WriteString(w, "half a body")
			panic("boom")
		}
	}))
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	first := serve("/partial")
	firstHeader := first.Header().Clone()
	if first.Code != http.StatusPartialContent || first.Header().Get("Content-Length") != strconv.Itoa(first.Body.Len()) {
		t.Fatalf("206: status %d, Content-Length %q for %d bytes", first.Code, first.Header().Get("Content-Length"), first.Body.Len())
	}
	for i := 0; i < 4; i++ {
		rec := serve("/panic")
		const want = `{"error":"internal error"}` + "\n"
		if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
			t.Fatalf("panic %d: %d %q, want 500 %q", i, rec.Code, rec.Body.String(), want)
		}
		if rec.Header().Get("X-Stale") != "" || rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Fatalf("panic %d: headers %v carry the earlier response's", i, rec.Header())
		}
	}
	if !reflect.DeepEqual(first.Header(), firstHeader) {
		t.Fatalf("the 206's header values changed after it was sent: %v, was %v", first.Header(), firstHeader)
	}

	if serve("/big"); held.body.Cap() <= maxPooledBody {
		t.Fatalf("the big body has cap %d", held.body.Cap())
	}
	big := held
	for i := 0; i < 8; i++ {
		if getBufferedResponse() == big {
			t.Fatal("a response buffer grown past maxPooledBody came back from the pool")
		}
	}
	for _, q := range []*request{
		{body: make([]byte, 0, maxPooledBody+1)},
		{ts: make([]float64, maxPooledRows+1)},
		{edges: make([]edgeJSON, maxPooledRows+1)},
		{lent: true},
	} {
		q.release()
		for i := 0; i < 8; i++ {
			if getRequest() == q {
				t.Fatalf("request %+v came back from the pool", *q)
			}
		}
	}
}

// TestServeTrailingBytesRejected: every POST endpoint answers 400 when
// anything but whitespace follows the body's JSON value, on the schema
// decoder's shape and on encoding/json's, and applies nothing.
func TestServeTrailingBytesRejected(t *testing.T) {
	s, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 10}, {Src: 2, Dst: 3, Time: 20}})
	for _, c := range []struct{ path, body string }{
		{"/v1/ingest", `{"edges":[{"src":1,"dst":2,"time":30}]}`},
		{"/v1/ingest", `{ "edges": [{"src":1,"dst":2,"time":30}] }`},
		{"/v1/embed", `{"nodes":[1,2],"times":[30,30]}`},
		{"/v1/embed", `{"times":[30,30],"nodes":[1,2]}`},
		{"/v1/score", `{"pairs":[{"src":1,"dst":2,"time":30}]}`},
		{"/v1/score", `{"pairs":[{"time":30,"src":1,"dst":2}]}`},
		{"/v1/explain", `{"node":1,"time":30}`},
	} {
		for _, tail := range []struct {
			text string
			code int
		}{
			{"garbage", http.StatusBadRequest},
			{"{}", http.StatusBadRequest},
			{" \n\t\r x", http.StatusBadRequest},
			{"\x00", http.StatusBadRequest},
			{"", http.StatusOK},
			{" \n\t\r", http.StatusOK},
		} {
			edges := s.dyn.NumEdges()
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body+tail.text))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tail.code {
				t.Fatalf("%s %s + %q: status %d, want %d (%s)", c.path, c.body, tail.text, resp.StatusCode, tail.code, body)
			}
			if tail.code != http.StatusOK {
				if !bytes.Contains(body, []byte("after top-level value")) {
					t.Fatalf("%s + %q: error %s does not name the trailing bytes", c.path, tail.text, body)
				}
				if s.dyn.NumEdges() != edges {
					t.Fatalf("%s + %q: a refused body changed the graph", c.path, tail.text)
				}
			}
		}
	}
}

// laggingBackend gives up on every embed at the request's deadline and,
// like a shard.Core whose caller stopped waiting on a queued cohort,
// leaves a pass behind that reads the targets later: when release
// closes.
type laggingBackend struct {
	backend
	release chan struct{}
	seen    chan []int32
}

func (b laggingBackend) EmbedRows(ctx context.Context, nodes []int32, ts []float64) ([]float32, []int, error) {
	go func() {
		<-b.release
		b.seen <- append([]int32(nil), nodes...)
	}()
	<-ctx.Done()
	return nil, nil, ctx.Err()
}

// TestServeAbandonedRequestIsNotReused: a request whose backend call
// returned at the deadline stays out of the pool, so the later requests
// that decode into pooled slices never write under the pass still
// reading its targets.
func TestServeAbandonedRequestIsNotReused(t *testing.T) {
	s, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 10}})
	lagged := *s.cur.Load()
	lag := laggingBackend{backend: lagged.backend, release: make(chan struct{}), seen: make(chan []int32, 1)}
	lagged.backend = lag
	s.cur.Store(&lagged)
	s.cfg.Limits.Timeout = 20 * time.Millisecond // the seed ingest above ran without one
	resp, _ := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2, 3}, Times: []float64{20, 20, 20}})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	waitForServe(t, 5*time.Second, func() bool { return s.inflight.Load() == 0 })
	for i := 0; i < 32; i++ { // each decodes into a pooled request, then fails validation
		if resp, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{99, 99, 99, 99}, Times: []float64{1, 1, 1, 1}}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
	}
	close(lag.release)
	if got := <-lag.seen; !sameInt32s(got, []int32{1, 2, 3}) {
		t.Fatalf("the abandoned pass read targets %v, want [1 2 3]", got)
	}
}

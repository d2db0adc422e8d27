// Package serve exposes a TGOpt inference engine over HTTP: a small,
// dependency-free JSON API for online temporal-graph serving. It wires
// together the pieces a production deployment needs — streaming edge
// ingestion into a graph.Dynamic, memoized embedding computation via
// core.Engine, link scoring with the model's affinity head, and cache /
// hit-rate introspection.
//
// Endpoints:
//
//	POST /v1/ingest  {"edges":[{"src":1,"dst":2,"time":42}]}
//	POST /v1/embed   {"nodes":[1,2],"times":[50,50]}
//	POST /v1/score   {"pairs":[{"src":1,"dst":2,"time":50}]}
//	GET  /v1/stats
//
// The engine's memoization is sound under any edge write (§3.2 of the
// paper): a row memoized at t' read only edges before t', so an edge at
// t can stale only rows with t' > t. With a lateness window configured
// on the dynamic graph (graph.Dynamic.SetLateness), /v1/ingest also
// accepts bounded out-of-order edges by sorted insert; edges older than
// the low-watermark are dropped and counted, never silently applied.
// Every accepted edge, in order or late, runs the engine's one
// invalidation (core.Engine.InvalidateEdge), which drops exactly the
// rows whose sampled neighborhoods the edge could reach. See DESIGN.md
// §11.
//
// Every endpoint is wrapped in the serving middleware (middleware.go):
// a semaphore-based in-flight limit (429 at saturation), a per-request
// deadline (504 on expiry), and panic-to-500 recovery, with the
// resulting counters and the engine's per-stage latency histograms
// exposed on /v1/stats and /metrics.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/nn"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Server serves TGOpt inference over a live dynamic graph.
type Server struct {
	dyn *graph.Dynamic

	// cfg is the validated configuration the server was built from, FS
	// and Logf filled; every params version is built from it.
	cfg Config
	// cur is the version serving. A request loads it once and runs
	// wholly on it; SwapParams and restart publish a new one (swap.go).
	cur atomic.Pointer[published]

	// restartMu serializes restarts; closed, under it, stops them
	// (Close). restarts counts the versions a restart published.
	restartMu sync.Mutex
	closed    bool
	restarts  atomic.Int64

	// wire formats /v1/embed rows (wire.go); it sits above the backend
	// and outlives swaps, ingest and restarts unchanged.
	wire *rowTextMemo

	// swaps, rollbacks, and lastSwapUnix are the /v1/stats "model"
	// section, beside the version the published model carries.
	swaps        atomic.Int64
	rollbacks    atomic.Int64
	lastSwapUnix atomic.Int64

	// The middleware's admission semaphore (nil: unlimited), the live
	// in-flight gauge, and totals for 429-rejected, 504-timed-out, and
	// panic-500 requests.
	sem      chan struct{}
	inflight atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64

	requests atomic.Int64
	ingested atomic.Int64
	// invalidated counts the memo rows dropped by the invalidation of
	// every accepted edge, appended or late.
	invalidated atomic.Int64

	// Embed/score failure accounting, split by cause so dashboards can
	// tell "the client hung up" (499) from "we could not serve" (503):
	// clientCancels counts abandoned requests, unavailable counts
	// server-side failures, a down core included. The 206
	// degraded responses are counted where they are decided, in the
	// Router.
	clientCancels atomic.Int64
	unavailable   atomic.Int64

	// Readiness state for /readyz (health.go): ready flips on once
	// Start has warm-started; draining flips on at
	// shutdown so load balancers stop sending new work.
	ready    atomic.Bool
	draining atomic.Bool

	// Background snapshotter counters (snapshot.go).
	snapshotSaves  atomic.Int64
	snapshotErrors atomic.Int64
}

// published is one version: a model, the backend computing over it,
// and the model's affinity-head pack, which /v1/score reads. None
// changes after it is published; restarting is the single-flight latch
// of its replacement once a core of its backend goes down.
type published struct {
	model      *tgat.Model
	backend    backend
	score      nn.MergePack
	restarting atomic.Bool
}

// build makes a version over m: one shard.Core over the server's
// graph, or a shard.Router of cfg.Shards cores over it. Nothing below
// it depends on which. A build that panics is an error.
func (s *Server) build(m *tgat.Model) (p *published, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, fmt.Errorf("serve: build panicked: %v", rec)
		}
	}()
	p = &published{model: m, score: m.PackScore()}
	if s.cfg.Shards == 1 {
		p.backend = shard.NewCore(m, s.dyn, s.cfg.Engine, s.cfg.Config)
	} else if p.backend, err = shard.NewRouter(m, s.dyn, s.cfg.Engine, s.cfg.Config); err != nil {
		return nil, err
	}
	p.backend.OnDown(func() { s.restart(p) })
	return p, nil
}

// Router exposes the serving version's shard router in sharded mode (nil
// otherwise).
func (s *Server) Router() *shard.Router {
	r, _ := s.cur.Load().backend.(*shard.Router)
	return r
}

// Engine exposes the serving version's TGOpt engine (cache persistence,
// introspection). Nil in sharded mode — use Router then.
func (s *Server) Engine() *core.Engine {
	if c, ok := s.cur.Load().backend.(*shard.Core); ok {
		return c.Engines()[0]
	}
	return nil
}

// Close stops restarts: a restart in flight finishes first, and no
// version is published by one after Close returns. Start's stop calls
// it. The error is always nil.
func (s *Server) Close() error {
	s.restartMu.Lock()
	s.closed = true
	s.restartMu.Unlock()
	return nil
}

// Handler returns the HTTP handler for the API, wrapped in the serving
// middleware (admission control, deadlines, panic recovery — see wrap).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/embed", s.handleEmbed)
	mux.HandleFunc("/v1/score", s.handleScore)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/explain", s.handleExplain)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return s.wrap(mux)
}

type explainRequest struct {
	Node int32   `json:"node"`
	Time float64 `json:"time"`
}

type explainResponse struct {
	Embedding    []float32     `json:"embedding"`
	Attributions []attribution `json:"attributions"`
}

type attribution struct {
	Neighbor int32   `json:"neighbor"`
	EdgeIdx  int32   `json:"edge_idx"`
	EdgeTime float64 `json:"edge_time"`
	Weight   float64 `json:"weight"`
}

// handleExplain returns a target's temporal embedding together with the
// top-layer attention attribution over its sampled past interactions —
// which history the model looked at.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	var req explainRequest
	if !decode(w, r, &req) {
		return
	}
	if !s.validNodes(w, []int32{req.Node}) {
		return
	}
	m := s.cur.Load().model
	sampler := graph.NewDynamicSampler(s.dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
	// Explain samples once per level: the read side of the write gate
	// keeps every level on one graph version, and a panic frees it. It
	// runs no engine pass, so no read side nests in this one.
	h, attrs := func() (*tensor.Tensor, []tgat.Attribution) {
		gate := s.dyn.Gate()
		gate.RLock()
		defer gate.RUnlock()
		return m.Explain(sampler, req.Node, req.Time)
	}()
	resp := explainResponse{Embedding: append([]float32(nil), h.Row(0)...)}
	for _, a := range attrs {
		resp.Attributions = append(resp.Attributions, attribution{
			Neighbor: a.Neighbor, EdgeIdx: a.EdgeIdx, EdgeTime: a.EdgeTime, Weight: a.Weight,
		})
	}
	writeJSON(w, resp)
}

// edgeJSON is the wire form of one interaction.
type edgeJSON struct {
	Src  int32   `json:"src"`
	Dst  int32   `json:"dst"`
	Time float64 `json:"time"`
	Idx  int32   `json:"idx,omitempty"`
}

type ingestRequest struct {
	Edges []edgeJSON `json:"edges"`
}

type ingestResponse struct {
	// Accepted counts in-order appends, Late the out-of-order edges
	// absorbed by sorted insert inside the lateness window, Dropped the
	// edges older than the low-watermark (counted, never applied).
	Accepted int `json:"accepted"`
	Late     int `json:"late"`
	Dropped  int `json:"dropped"`
	// Invalidated is how many memoized embeddings this request's edges
	// (late inserts, and appends landing under future-time memos)
	// forced out of the cache to keep served results exact.
	Invalidated int     `json:"invalidated"`
	NumEdges    int     `json:"num_edges"`
	MaxTime     float64 `json:"max_time"`
	Watermark   float64 `json:"watermark"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := getRequest()
	defer q.release()
	if !q.decodeEdges(w, r, "edges") {
		return
	}
	// Partial-ingest semantics: edges are absorbed in request order, and
	// the prefix before the first invalid edge stays in the graph
	// (ingestion is not transactional). The error response reports the
	// absorbed prefix, and tgopt_ingested_total counts exactly the edges
	// that are actually in the graph — including that prefix. Late edges
	// inside the lateness window sorted-insert and selectively
	// invalidate the memoized embeddings they could reach; edges below
	// the watermark are dropped and counted, never silently applied.
	//
	// The graph's write gate is held, write side, from the version load
	// to the last invalidation: no engine pass runs between an edge and
	// its invalidation, each edge's invalidation runs before the graph
	// accepts the next (the indexes retire records at the watermark,
	// core.WindowIndex), and a version a swap publishes meanwhile
	// computes nothing before the hold ends: its passes wait here too.
	// A hold per edge instead cost throughput (DESIGN.md §11).
	gate := s.dyn.Gate()
	gate.Lock()
	defer gate.Unlock()
	b := s.cur.Load().backend
	var resp ingestResponse
	for i, e := range q.edges {
		edge := graph.Edge{Src: e.Src, Dst: e.Dst, Time: e.Time, Idx: e.Idx}
		res, _, err := s.dyn.Ingest(edge)
		if err != nil {
			s.ingested.Add(int64(resp.Accepted + resp.Late))
			httpError(w, http.StatusBadRequest,
				"edge %d rejected after %d appended, %d late, %d dropped: %v",
				i, resp.Accepted, resp.Late, resp.Dropped, err)
			return
		}
		switch res {
		case graph.IngestAppended:
			resp.Accepted++
		case graph.IngestLate:
			resp.Late++
		case graph.IngestDropped:
			resp.Dropped++
			continue
		}
		// The graph took the edge: the backend drops the memoized
		// embeddings it could reach (a Router, on every shard).
		n := b.Apply(edge, res)
		resp.Invalidated += n
		s.invalidated.Add(int64(n))
	}
	s.ingested.Add(int64(resp.Accepted + resp.Late))
	resp.NumEdges = s.dyn.NumEdges()
	resp.MaxTime = s.dyn.MaxTime()
	resp.Watermark = s.dyn.Watermark()
	writeIngest(w, resp)
}

type embedRequest struct {
	Nodes []int32   `json:"nodes"`
	Times []float64 `json:"times"`
}

type embedResponse struct {
	Embeddings [][]float32 `json:"embeddings"`
	// Partial marks a degraded response (HTTP 206): the rows listed in
	// Degraded could not be computed (their shard was down and no
	// fallback answered) and are null; every other row is exact.
	Partial  bool  `json:"partial,omitempty"`
	Degraded []int `json:"degraded,omitempty"`
}

func (s *Server) handleEmbed(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := getRequest()
	defer q.release()
	if !q.decodeEmbed(w, r) {
		return
	}
	if len(q.nodes) == 0 || len(q.nodes) != len(q.ts) {
		httpError(w, http.StatusBadRequest, "nodes and times must be non-empty and equal length")
		return
	}
	if !s.validNodes(w, q.nodes) || !s.validTimes(w, q.ts) {
		return
	}
	slab, degraded, ok := s.embedSlab(w, r, s.cur.Load().backend, q)
	if !ok {
		return
	}
	s.writeEmbed(w, slab, degraded)
}

// embedSlab computes the embeddings of q's nodes and ts on b as one
// backing slab (row i at [i*d, (i+1)*d)); degraded lists the rows a
// shard pool could not serve. On failure it writes the error response,
// marks q lent — a backend that gave up waiting may still be reading
// its slices — and returns ok=false.
func (s *Server) embedSlab(w http.ResponseWriter, r *http.Request, b backend, q *request) (slab []float32, degraded []int, ok bool) {
	slab, degraded, err := b.EmbedRows(r.Context(), q.nodes, q.ts)
	if err != nil {
		q.lent = true
		s.writeEmbedError(w, err)
		return nil, nil, false
	}
	return slab, degraded, true
}

// statusClientClosedRequest is the de-facto status (nginx's 499) for
// "the client went away before we could answer". It never reaches that
// client; it exists so the access log and counters don't book client
// hang-ups as server-side failures.
const statusClientClosedRequest = 499

// writeEmbedError classifies a failed embed/score computation:
//
//   - the client canceled → 499 accounting, not a server-side 503;
//   - the deadline expired → 504 (the middleware's own 504 response
//     wins the race; the write here is a discarded buffer);
//   - the core is down, or no shard of the pool is up → 503 with a
//     Retry-After hint, counted as unavailable;
//   - anything else → 503, counted as unavailable.
func (s *Server) writeEmbedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.clientCancels.Add(1)
		httpError(w, statusClientClosedRequest, "client closed request: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "request exceeded its deadline: %v", err)
	case errors.Is(err, shard.ErrShardDown), errors.Is(err, shard.ErrNoShardUp):
		s.unavailable.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		s.unavailable.Add(1)
		httpError(w, http.StatusServiceUnavailable, "request abandoned: %v", err)
	}
}

type scoreRequest struct {
	Pairs []edgeJSON `json:"pairs"`
}

type scoreResponse struct {
	Logits []float64 `json:"logits"`
	Probs  []float64 `json:"probs"`
	// Partial marks a degraded response (HTTP 206): pairs listed in
	// Degraded had at least one endpoint on an unreachable shard and
	// carry zeroed logit/prob placeholders.
	Partial  bool  `json:"partial,omitempty"`
	Degraded []int `json:"degraded,omitempty"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	q := getRequest()
	defer q.release()
	if !q.decodeEdges(w, r, "pairs") {
		return
	}
	if len(q.edges) == 0 {
		httpError(w, http.StatusBadRequest, "pairs must be non-empty")
		return
	}
	nb := len(q.edges)
	q.nodes, q.ts = resize(q.nodes, 2*nb), resize(q.ts, 2*nb)
	for i, p := range q.edges {
		q.nodes[i], q.nodes[nb+i] = p.Src, p.Dst
		q.ts[i], q.ts[nb+i] = p.Time, p.Time
	}
	if !s.validNodes(w, q.nodes) || !s.validTimes(w, q.ts[:nb]) {
		return
	}
	// The src‖dst embeddings come out of the backend as one slab; only
	// the tiny affinity head runs per-request, over the same version's
	// pack, so one logit never mixes two versions.
	cur := s.cur.Load()
	slab, degraded, ok := s.embedSlab(w, r, cur.backend, q)
	if !ok {
		return
	}
	d := cur.model.Cfg.NodeDim
	ar := tensor.GetArena()
	hSrc := ar.Wrap(slab[:nb*d], nb, d)
	hDst := ar.Wrap(slab[nb*d:], nb, d)
	q.f64 = resize(q.f64, 2*nb)
	resp := scoreLogits(q.f64, cur.model.ScorePacked(ar, &cur.score, hSrc, hDst))
	tensor.PutArena(ar)
	if len(degraded) > 0 {
		// A pair is degraded if either endpoint row was (targets are
		// laid out src[0..nb) ‖ dst[0..nb)). Its score was computed
		// over a zero row and is meaningless: zero the placeholders.
		bad := map[int]bool{}
		for _, i := range degraded {
			bad[i%nb] = true
		}
		for i := range resp.Logits {
			if bad[i] {
				resp.Logits[i], resp.Probs[i] = 0, 0
				resp.Degraded = append(resp.Degraded, i)
			}
		}
		resp.Partial = true
	}
	writeScore(w, resp)
}

// scoreLogits renders an affinity-head output column into the score
// response (logit plus overflow-safe sigmoid probability), the logits in
// the first half of buf and the probabilities in the second.
func scoreLogits(buf []float64, logits *tensor.Tensor) scoreResponse {
	nb := len(buf) / 2
	resp := scoreResponse{Logits: buf[:nb], Probs: buf[nb:]}
	for i, l := range logits.Data()[:nb] {
		resp.Logits[i] = float64(l)
		resp.Probs[i] = sigmoid(float64(l))
	}
	return resp
}

// validTimes rejects non-finite timestamps with 400: no embedding or
// edge is defined at them.
func (s *Server) validTimes(w http.ResponseWriter, ts []float64) bool {
	for _, t := range ts {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			httpError(w, http.StatusBadRequest, "non-finite time %v", t)
			return false
		}
	}
	return true
}

// validNodes rejects node ids outside the graph (and the feature
// tables), writing the error response itself.
func (s *Server) validNodes(w http.ResponseWriter, nodes []int32) bool {
	max := int32(s.dyn.NumNodes())
	for _, v := range nodes {
		if v < 1 || v > max {
			httpError(w, http.StatusBadRequest, "node %d out of range 1..%d", v, max)
			return false
		}
	}
	return true
}

// writeJSON encodes v in full before anything reaches the client, so
// an encoding failure can still produce a clean 500 — encoding straight
// into a bare ResponseWriter would have already committed a 200 header
// and a partial body.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with an explicit status code (degraded
// partial responses go out as 206).
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	if bw, ok := w.(*bufferedResponse); ok {
		// Behind the middleware w already is a buffer: encode into it
		// directly. Encode marshals into the encoder's pooled state and
		// issues one Write, only on success — so the body is allocated
		// once at its final size, and a value encoding/json refuses
		// leaves it untouched for the 500.
		if err := json.NewEncoder(&bw.body).Encode(v); err != nil {
			httpError(w, http.StatusInternalServerError, "encode error: %v", err)
			return
		}
		bw.header["Content-Type"] = jsonContentType
		bw.WriteHeader(code)
		return
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		httpError(w, http.StatusInternalServerError, "encode error: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(buf.Bytes())
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// sigmoid is the overflow-safe logistic function.
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

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
// Because the engine's memoization is sound under chronological appends
// (§3.2 of the paper), embeddings served before an in-order ingest
// remain valid after it. Real event streams are not chronological:
// with a lateness window configured on the dynamic graph
// (graph.Dynamic.SetLateness), /v1/ingest also accepts bounded
// out-of-order edges by sorted insert and keeps the cache exact by
// selective invalidation of the embeddings whose sampled neighborhoods
// the late edge could reach (core.Engine.InvalidateLateEdge); edges
// older than the low-watermark are dropped and counted, never silently
// applied. See DESIGN.md §11.
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
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Server serves TGOpt inference over a live dynamic graph.
type Server struct {
	dyn   *graph.Dynamic
	model *tgat.Model

	// backend computes, invalidates, swaps and snapshots: one shard.Core
	// over dyn (New) or a shard.Router of N cores over it (NewSharded).
	// Nothing below the constructors depends on which.
	backend backend

	// wire formats /v1/embed rows (wire.go); it sits above the backend
	// and outlives swaps, ingest and shard restarts unchanged.
	wire *rowTextMemo

	// swapGate is the request-level hot-swap barrier (swap.go): embed,
	// score, ingest, and explain hold the read side for their whole
	// handler body, SwapParams' commit takes the write side. The backend
	// has its own gates, but this one is still needed — /v1/score runs
	// embedSlab and the affinity head as two separate calls, and a swap
	// landing between them would score new-version logits over
	// old-version embeddings. Lock order: swapGate before the backend's
	// (DESIGN.md §13).
	swapGate sync.RWMutex
	// ingestMu serializes /v1/ingest, so each edge's invalidation runs
	// before the graph accepts the next: the invalidation indexes retire
	// records at the watermark, and an edge accepted but not yet applied
	// must not see the watermark moved past it (core.TargetIndex).
	ingestMu sync.Mutex
	// swaps, rollbacks, and lastSwapUnix are the /v1/stats "model"
	// section, beside the version model itself carries.
	swaps        atomic.Int64
	rollbacks    atomic.Int64
	lastSwapUnix atomic.Int64

	// Request bounds (SetLimits) and the middleware's counters: the
	// admission semaphore, the live in-flight gauge, and totals for
	// 429-rejected, 504-timed-out, and panic-500 requests.
	limits   Limits
	sem      chan struct{}
	inflight atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64

	requests atomic.Int64
	ingested atomic.Int64
	// invalidated counts cache entries dropped by late-edge selective
	// invalidation.
	invalidated atomic.Int64

	// Embed/score failure accounting, split by cause so dashboards can
	// tell "the client hung up" (499) from "we could not serve" (503):
	// clientCancels counts abandoned requests, unavailable counts
	// server-side failures, a pool with no shard up included. The 206
	// degraded responses are counted where they are decided, in the
	// Router.
	clientCancels atomic.Int64
	unavailable   atomic.Int64

	// Readiness state for /readyz (health.go): ready flips on once
	// warm-start (or explicit SetReady) completes; draining flips on at
	// shutdown so load balancers stop sending new work.
	ready    atomic.Bool
	draining atomic.Bool

	// Background snapshotter counters (snapshot.go).
	snapshotSaves  atomic.Int64
	snapshotErrors atomic.Int64
}

// newServer is the part of New and NewSharded that does not depend on
// the backend.
func newServer(model *tgat.Model, dyn *graph.Dynamic) *Server {
	return &Server{dyn: dyn, model: model, wire: newRowTextMemo(model.Cfg.NodeDim)}
}

// New builds a server over a model and a (possibly pre-populated)
// dynamic graph, computing on one shard.Core over that graph.
func New(model *tgat.Model, dyn *graph.Dynamic, opt core.Options) *Server {
	s := newServer(model, dyn)
	s.backend = shard.NewCore(model, dyn, opt)
	return s
}

// Engine exposes the underlying TGOpt engine (cache persistence,
// introspection). Nil in sharded mode — use Router then.
func (s *Server) Engine() *core.Engine {
	if c, ok := s.backend.(*shard.Core); ok {
		return c.Engine()
	}
	return nil
}

// Close stops a sharded server's supervisor, so no shard restarts after
// it returns; an unsharded server has nothing to stop. Call it after the
// HTTP server has drained. The error is always nil.
func (s *Server) Close() error {
	if r := s.Router(); r != nil {
		r.Close()
	}
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
	s.swapGate.RLock()
	defer s.swapGate.RUnlock()
	sampler := graph.NewDynamicSampler(s.dyn, s.model.Cfg.NumNeighbors, graph.MostRecent, 0)
	h, attrs := s.model.Explain(sampler, req.Node, req.Time)
	resp := explainResponse{Embedding: append([]float32(nil), h.Row(0)...)}
	for _, a := range attrs {
		resp.Attributions = append(resp.Attributions, attribution{
			Neighbor: a.Neighbor, EdgeIdx: a.EdgeIdx, EdgeTime: a.EdgeTime, Weight: a.Weight,
		})
	}
	writeJSON(w, resp)
}

// handleMetrics exposes the serving counters in the Prometheus text
// exposition format, so standard scrapers can monitor a deployment.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	write := func(name, help string, value float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, value)
	}
	et := s.engineTotals()
	write("tgopt_graph_nodes", "Nodes in the serving graph.", float64(s.dyn.NumNodes()))
	write("tgopt_graph_edges", "Interactions ingested.", float64(s.dyn.NumEdges()))
	write("tgopt_cache_items", "Memoized embeddings resident.", float64(et.items))
	write("tgopt_cache_bytes", "Slab bytes of the caches: row chunks plus slots.", float64(et.bytes))
	write("tgopt_cache_hit_rate", "Memo cache hits per lookup since boot.", et.hitRate())
	cs := et.cache
	write("tgopt_cache_lookups_total", "Memo cache lookups.", float64(cs.Lookups))
	write("tgopt_cache_hits_total", "Memo cache hits.", float64(cs.Hits))
	write("tgopt_cache_misses_total", "Memo cache misses.", float64(cs.Misses))
	write("tgopt_cache_admit_rejected_total", "Stores refused admission by the TinyLFU filter.", float64(cs.AdmitRejected))
	writeLayerCacheMetrics(&b, et.layers)
	tm := et.topMemo
	write("tgopt_top_memo_lookups_total", "Top-layer memo lookups (target rows).", float64(tm.Lookups))
	write("tgopt_top_memo_hits_total", "Top-layer rows answered from the memo without recomputing.", float64(tm.Hits))
	write("tgopt_top_memo_stores_total", "Top-layer rows stored into the memo.", float64(tm.Stores))
	write("tgopt_top_memo_stale_skips_total", "Top-layer rows computed but not stored because a write landed during their pass.", float64(tm.StaleSkips))
	ws := s.wire.stats()
	write("tgopt_wire_rows_total", "Embedding rows encoded into /v1/embed responses.", float64(ws.Rows))
	write("tgopt_wire_row_text_hits_total", "Encoded embedding rows whose text was copied from the row-text memo instead of formatted.", float64(ws.RowTextHits))
	write("tgopt_requests_total", "API requests handled.", float64(s.requests.Load()))
	write("tgopt_ingested_total", "Edges accepted via /v1/ingest.", float64(s.ingested.Load()))
	write("tgopt_ingest_late_accepted_total", "Out-of-order edges absorbed inside the lateness window.", float64(s.dyn.LateAccepted()))
	write("tgopt_ingest_late_dropped_total", "Edges dropped below the low-watermark.", float64(s.dyn.LateDropped()))
	write("tgopt_ingest_watermark", "Low-watermark: edges older than this are dropped.", s.dyn.Watermark())
	write("tgopt_cache_invalidated_total", "Memoized embeddings dropped by late-edge invalidation.", float64(s.invalidated.Load()))
	write("tgopt_cache_stale_store_skips_total", "Memo stores skipped or rolled back because a mutation raced the compute.", float64(et.staleSkips))
	write("tgopt_inflight_requests", "Requests currently executing.", float64(s.inflight.Load()))
	write("tgopt_rejected_total", "Requests rejected with 429 at the in-flight limit.", float64(s.rejected.Load()))
	write("tgopt_timeouts_total", "Requests that exceeded the deadline (504).", float64(s.timeouts.Load()))
	write("tgopt_panics_total", "Handler panics recovered to 500.", float64(s.panics.Load()))
	write("tgopt_client_cancels_total", "Computations abandoned because the client went away (499-style).", float64(s.clientCancels.Load()))
	write("tgopt_unavailable_total", "Computations failed server-side (503), client cancels excluded.", float64(s.unavailable.Load()))
	write("tgopt_snapshots_total", "Background cache snapshots written.", float64(s.snapshotSaves.Load()))
	write("tgopt_snapshot_errors_total", "Cache snapshot or warm-start failures.", float64(s.snapshotErrors.Load()))
	write("tgopt_model_version", "Params version currently serving.", float64(s.model.Version()))
	write("tgopt_model_swaps_total", "Successful parameter hot-swaps since boot.", float64(s.swaps.Load()))
	write("tgopt_model_rollbacks_total", "Hot-swaps rejected (corrupt or failed snapshot); the previous version kept serving.", float64(s.rollbacks.Load()))
	write("tgopt_model_last_swap_timestamp_seconds", "Unix time of the last successful hot-swap (0 = never).", float64(s.lastSwapUnix.Load()))
	if bt := s.batchTotals(); bt != nil {
		write("tgopt_batch_enqueued_total", "Targets enqueued into the micro-batcher.", float64(bt.Enqueued))
		write("tgopt_batch_coalesced_total", "Targets that joined a fused pass another request opened.", float64(bt.Coalesced))
		write("tgopt_batch_coalesce_ratio", "Fraction of targets that joined a fused pass another request opened.", bt.CoalesceRatio())
		write("tgopt_batch_passes_total", "Fused engine passes executed.", float64(bt.Batches))
		write("tgopt_batch_panics_total", "Fused passes that panicked (recovered to errors).", float64(bt.Panics))
		fmt.Fprintf(&b, "# HELP tgopt_batch_occupancy Targets per fused pass.\n# TYPE tgopt_batch_occupancy summary\n")
		for _, q := range summaryQuantiles {
			fmt.Fprintf(&b, "tgopt_batch_occupancy{quantile=%q} %d\n", q.label, bt.occupancy.Quantile(q.q))
		}
		fmt.Fprintf(&b, "tgopt_batch_occupancy_sum %d\ntgopt_batch_occupancy_count %d\n", bt.occupancy.Sum(), bt.occupancy.Count())
		fmt.Fprintf(&b, "# HELP tgopt_batch_queue_wait_seconds Enqueue-to-flush wait per request.\n# TYPE tgopt_batch_queue_wait_seconds summary\n")
		for _, q := range summaryQuantiles {
			fmt.Fprintf(&b, "tgopt_batch_queue_wait_seconds{quantile=%q} %g\n", q.label, bt.queueWait.Quantile(q.q).Seconds())
		}
		fmt.Fprintf(&b, "tgopt_batch_queue_wait_seconds_sum %g\ntgopt_batch_queue_wait_seconds_count %d\n", bt.queueWait.Sum().Seconds(), bt.queueWait.Count())
	}
	if st := s.shardHealth(); st != nil {
		writeShardMetrics(&b, write, st)
	}
	fmt.Fprintf(&b, "# HELP tgopt_stage_latency_seconds Engine per-stage latency quantiles.\n")
	fmt.Fprintf(&b, "# TYPE tgopt_stage_latency_seconds summary\n")
	for _, st := range core.Stages {
		h := et.stages[st]
		for _, q := range summaryQuantiles {
			fmt.Fprintf(&b, "tgopt_stage_latency_seconds{stage=%q,quantile=%q} %g\n",
				st, q.label, h.Quantile(q.q).Seconds())
		}
		fmt.Fprintf(&b, "tgopt_stage_latency_seconds_sum{stage=%q} %g\n", st, h.Sum().Seconds())
		fmt.Fprintf(&b, "tgopt_stage_latency_seconds_count{stage=%q} %d\n", st, h.Count())
	}
	io.WriteString(w, b.String())
}

// summaryQuantiles are the quantiles every /metrics summary reports.
var summaryQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}}

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
	var req ingestRequest
	if !decode(w, r, &req) {
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
	// The whole batch runs under the swap gate's read side: a params
	// swap drops every memo, so an invalidation interleaved with the
	// commit could neither resurrect an old-version entry nor miss a
	// new one — but holding the gate keeps the batch's invalidation
	// accounting attributable to one model version.
	s.swapGate.RLock()
	defer s.swapGate.RUnlock()
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	var resp ingestResponse
	for i, e := range req.Edges {
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
		n := s.backend.Apply(edge, res)
		resp.Invalidated += n
		s.invalidated.Add(int64(n))
	}
	s.ingested.Add(int64(resp.Accepted + resp.Late))
	resp.NumEdges = s.dyn.NumEdges()
	resp.MaxTime = s.dyn.MaxTime()
	resp.Watermark = s.dyn.Watermark()
	writeJSON(w, resp)
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
	var req embedRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Nodes) == 0 || len(req.Nodes) != len(req.Times) {
		httpError(w, http.StatusBadRequest, "nodes and times must be non-empty and equal length")
		return
	}
	if !s.validNodes(w, req.Nodes) || !s.validTimes(w, req.Times) {
		return
	}
	// Read side of the hot-swap barrier: every row of this response is
	// computed under one params version.
	s.swapGate.RLock()
	defer s.swapGate.RUnlock()
	slab, degraded, ok := s.embedSlab(w, r, req.Nodes, req.Times)
	if !ok {
		return
	}
	s.writeEmbed(w, slab, degraded)
}

// embedSlab computes the embeddings of the given targets as one backing
// slab (row i at [i*d, (i+1)*d)); degraded lists the rows a shard pool
// could not serve. On failure it writes the error response and returns
// ok=false.
func (s *Server) embedSlab(w http.ResponseWriter, r *http.Request, nodes []int32, ts []float64) (slab []float32, degraded []int, ok bool) {
	slab, degraded, err := s.backend.EmbedRows(r.Context(), nodes, ts)
	if err != nil {
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
//   - the client canceled → 499 accounting, not a server-side 503
//     (previously both were conflated into one 503 path);
//   - the deadline expired → 504 (the middleware's own 504 response
//     wins the race; the write here is a discarded buffer);
//   - no shard of the pool is up → 503 with a Retry-After hint,
//     counted as unavailable;
//   - anything else → 503, counted as unavailable.
func (s *Server) writeEmbedError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		s.clientCancels.Add(1)
		httpError(w, statusClientClosedRequest, "client closed request: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "request exceeded its deadline: %v", err)
	case errors.Is(err, shard.ErrNoShardUp):
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
	var req scoreRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Pairs) == 0 {
		httpError(w, http.StatusBadRequest, "pairs must be non-empty")
		return
	}
	nb := len(req.Pairs)
	nodes := make([]int32, 2*nb)
	ts := make([]float64, 2*nb)
	for i, p := range req.Pairs {
		nodes[i], nodes[nb+i] = p.Src, p.Dst
		ts[i], ts[nb+i] = p.Time, p.Time
	}
	if !s.validNodes(w, nodes) || !s.validTimes(w, ts[:nb]) {
		return
	}
	// Read side of the hot-swap barrier. Scoring is two engine calls
	// (embed the slab, then the affinity head) — without this gate a
	// swap could land between them and mix versions inside one logit.
	s.swapGate.RLock()
	defer s.swapGate.RUnlock()
	// The src‖dst embeddings come out of the backend as one slab; only
	// the tiny affinity head runs per-request.
	slab, degraded, ok := s.embedSlab(w, r, nodes, ts)
	if !ok {
		return
	}
	d := s.model.Cfg.NodeDim
	ar := tensor.GetArena()
	hSrc := ar.Wrap(slab[:nb*d], nb, d)
	hDst := ar.Wrap(slab[nb*d:], nb, d)
	resp := scoreLogits(s.model.ScoreWith(ar, hSrc, hDst), nb)
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
// response (logit plus overflow-safe sigmoid probability).
func scoreLogits(logits *tensor.Tensor, nb int) scoreResponse {
	resp := scoreResponse{Logits: make([]float64, nb), Probs: make([]float64, nb)}
	for i := 0; i < nb; i++ {
		l := float64(logits.At(i, 0))
		resp.Logits[i] = l
		resp.Probs[i] = sigmoid(l)
	}
	return resp
}

// cacheSection is the "cache" object of /v1/stats: the memo caches'
// aggregate counters plus the top-layer memo's, which is not a Cache
// and so has no cache_layers entry.
type cacheSection struct {
	core.CacheStats
	TopMemo core.TopMemoStats `json:"top_memo"`
}

type statsResponse struct {
	NumNodes   int          `json:"num_nodes"`
	NumEdges   int          `json:"num_edges"`
	MaxTime    float64      `json:"max_time"`
	CacheItems int          `json:"cache_items"`
	CacheBytes int64        `json:"cache_bytes"`
	HitRate    float64      `json:"hit_rate"`
	Cache      cacheSection `json:"cache"`
	// Wire counts the /v1/embed rows encoded and those whose text the
	// row-text memo held.
	Wire wireStats `json:"wire"`
	// CacheLayers breaks the cache section down per memoized layer
	// (summed across cores); deep layers (>= 2) only appear when
	// serving a model with -layers >= 3.
	CacheLayers []core.LayerCacheStats `json:"cache_layers,omitempty"`
	Requests    int64                  `json:"requests"`
	Ingested    int64                  `json:"ingested"`
	InFlight    int64                  `json:"in_flight"`
	Rejected    int64                  `json:"rejected"`
	Timeouts    int64                  `json:"timeouts"`
	Panics      int64                  `json:"panics"`
	// ClientCancels (499-style) and Unavailable (real 503s) split the
	// failed-computation accounting by cause; Partials repeats the
	// router's degradation counter (Shards).
	ClientCancels int64       `json:"client_cancels"`
	Unavailable   int64       `json:"unavailable"`
	Partials      int64       `json:"partial_responses,omitempty"`
	Snapshots     int64       `json:"snapshots"`
	SnapErrors    int64       `json:"snapshot_errors"`
	Ingest        ingestStats `json:"ingest"`
	// Model reports the online-learning loop: the params version
	// serving, successful hot-swaps, rejected (rolled-back) swaps, and
	// when the last swap landed.
	Model    modelStats            `json:"model"`
	Stages   map[string]stageStats `json:"stages"`
	Batching *batchStats           `json:"batching,omitempty"`
	// Shards reports per-shard crash/restart state and the router's
	// failover/degradation counters in sharded mode.
	Shards *shard.RouterStats `json:"shards,omitempty"`
}

// ingestStats reports the out-of-order ingestion state: the configured
// lateness window, the current low-watermark, the late-edge outcome
// counters, and the invalidation work late edges have caused.
type ingestStats struct {
	Lateness        float64 `json:"lateness"`
	Watermark       float64 `json:"watermark"`
	LateAccepted    int64   `json:"late_accepted"`
	LateDropped     int64   `json:"late_dropped"`
	Invalidated     int64   `json:"invalidated"`
	StaleStoreSkips int64   `json:"stale_store_skips"`
}

// stageStats is the JSON rendering of one engine stage's latency
// histogram (quantiles are upper bounds, see stats.Histogram.Quantile).
type stageStats struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	et := s.engineTotals()
	shards := s.shardHealth()
	resp := statsResponse{
		NumNodes:      s.dyn.NumNodes(),
		NumEdges:      s.dyn.NumEdges(),
		MaxTime:       s.dyn.MaxTime(),
		CacheItems:    et.items,
		CacheBytes:    et.bytes,
		HitRate:       et.hitRate(),
		Cache:         cacheSection{et.cache, et.topMemo},
		Wire:          s.wire.stats(),
		CacheLayers:   et.layers,
		Requests:      s.requests.Load(),
		Ingested:      s.ingested.Load(),
		InFlight:      s.inflight.Load(),
		Rejected:      s.rejected.Load(),
		Timeouts:      s.timeouts.Load(),
		Panics:        s.panics.Load(),
		ClientCancels: s.clientCancels.Load(),
		Unavailable:   s.unavailable.Load(),
		Snapshots:     s.snapshotSaves.Load(),
		SnapErrors:    s.snapshotErrors.Load(),
		Ingest: ingestStats{
			Lateness:        s.dyn.Lateness(),
			Watermark:       s.dyn.Watermark(),
			LateAccepted:    s.dyn.LateAccepted(),
			LateDropped:     s.dyn.LateDropped(),
			Invalidated:     s.invalidated.Load(),
			StaleStoreSkips: et.staleSkips,
		},
		Model:    s.modelStatsJSON(),
		Stages:   et.stageStatsJSON(),
		Batching: s.batchTotals().json(),
		Shards:   shards,
	}
	if shards != nil {
		resp.Partials = shards.PartialResponses
	}
	writeJSON(w, resp)
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

// maxRequestBytes bounds a request body: far above any batch the
// engine is sized for, far below what would hurt the process.
const maxRequestBytes = 16 << 20

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
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
		bw.header.Set("Content-Type", "application/json")
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

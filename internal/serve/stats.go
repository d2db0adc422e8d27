package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/shard"
	"tgopt/internal/stats"
)

// statsResponse is one scrape: the serving version's engines, batchers
// and shards read once, beside the server's own counters. /v1/stats
// encodes it as it is, and every /metrics sample is one of its fields
// (metricTable).
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
	// failed-computation accounting by cause; a pool's 206 partials are
	// under Shards.
	ClientCancels int64       `json:"client_cancels"`
	Unavailable   int64       `json:"unavailable"`
	Snapshots     int64       `json:"snapshots"`
	SnapErrors    int64       `json:"snapshot_errors"`
	Ingest        ingestStats `json:"ingest"`
	// Model reports the online-learning loop: the params version
	// serving, successful hot-swaps, rejected (rolled-back) swaps, and
	// when the last swap landed.
	Model    modelStats            `json:"model"`
	Stages   map[string]stageStats `json:"stages"`
	Batching batchStats            `json:"batching"`
	// Config is the value of every serving knob (config.go).
	Config configStats `json:"config"`
	// Shards reports per-shard crash/restart state and the router's
	// failover/degradation counters in sharded mode.
	Shards *shard.RouterStats `json:"shards,omitempty"`
}

// cacheSection is the "cache" object of /v1/stats: the memo caches'
// aggregate counters plus the top-layer memo's, which is not a Cache
// and so has no cache_layers entry.
type cacheSection struct {
	core.CacheStats
	TopMemo core.TopMemoStats `json:"top_memo"`
}

// ingestStats reports the out-of-order ingestion state: the configured
// lateness window, the current low-watermark, the late-edge outcome
// counters, and the memo rows every accepted edge's invalidation has
// dropped.
type ingestStats struct {
	Lateness     float64 `json:"lateness"`
	Watermark    float64 `json:"watermark"`
	LateAccepted int64   `json:"late_accepted"`
	LateDropped  int64   `json:"late_dropped"`
	Invalidated  int64   `json:"invalidated"`
}

// modelStats is the /v1/stats "model" section.
type modelStats struct {
	Version      uint64 `json:"version"`
	Swaps        int64  `json:"swaps"`
	Rollbacks    int64  `json:"rollbacks"`
	LastSwapUnix int64  `json:"last_swap_unix"`
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

// batchStats is the batchers' state on /v1/stats: their summed
// counters and merged distributions. A batcher has no settings.
type batchStats struct {
	batcher.Snapshot
	CoalesceRatio  float64 `json:"coalesce_ratio"`
	OccupancyMean  float64 `json:"occupancy_mean"`
	OccupancyP50   int64   `json:"occupancy_p50"`
	OccupancyP90   int64   `json:"occupancy_p90"`
	OccupancyP99   int64   `json:"occupancy_p99"`
	OccupancySum   int64   `json:"occupancy_sum"`
	OccupancyCount int64   `json:"occupancy_count"`
	QueueWaitP50   float64 `json:"queue_wait_p50_us"`
	QueueWaitP90   float64 `json:"queue_wait_p90_us"`
	QueueWaitP99   float64 `json:"queue_wait_p99_us"`
	QueueWaitSum   float64 `json:"queue_wait_sum_us"`
	QueueWaitCount int64   `json:"queue_wait_count"`
}

// scrape builds one statsResponse. It loads the serving version once
// and reads each of its engines, batchers and shards once: counters sum
// over the cores, and histograms merge bucket by bucket (one geometry),
// so a pool reports the figures a single core does plus its shard
// section, whose per-shard cache figures come from the same engine
// reads.
func (s *Server) scrape() statsResponse {
	cur := s.cur.Load()
	st := statsResponse{
		NumNodes:      s.dyn.NumNodes(),
		NumEdges:      s.dyn.NumEdges(),
		MaxTime:       s.dyn.MaxTime(),
		Wire:          s.wire.stats(),
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
			Lateness:     s.dyn.Lateness(),
			Watermark:    s.dyn.Watermark(),
			LateAccepted: s.dyn.LateAccepted(),
			LateDropped:  s.dyn.LateDropped(),
			Invalidated:  s.invalidated.Load(),
		},
		Model: modelStats{
			Version:      cur.model.Version(),
			Swaps:        s.swaps.Load(),
			Rollbacks:    s.rollbacks.Load(),
			LastSwapUnix: s.lastSwapUnix.Load(),
		},
		Stages: make(map[string]stageStats, len(core.Stages)),
		Config: s.cfg.stats(),
	}
	if r, ok := cur.backend.(*shard.Router); ok {
		pool := r.Stats()
		st.Shards = &pool
	}

	stages := make(map[string]*stats.Histogram, len(core.Stages))
	for _, name := range core.Stages {
		stages[name] = stats.NewHistogram()
	}
	for i, eng := range cur.backend.Engines() {
		layers := eng.LayerCacheStats()
		st.CacheLayers = shard.AddLayerCacheStats(st.CacheLayers, layers)
		items, bytes := 0, int64(0)
		for _, l := range layers {
			items, bytes = items+l.Items, bytes+l.Bytes
		}
		if st.Shards != nil {
			st.Shards.Shards[i].CacheItems, st.Shards.Shards[i].CacheBytes = items, bytes
		}
		st.CacheItems, st.CacheBytes = st.CacheItems+items, st.CacheBytes+bytes
		st.Cache.TopMemo.Add(eng.TopMemoStats())
		for name, h := range eng.StageStats() {
			stages[name].Merge(h)
		}
	}
	for _, l := range st.CacheLayers {
		st.Cache.Add(l.CacheStats)
	}
	if st.Cache.Lookups > 0 {
		st.HitRate = float64(st.Cache.Hits) / float64(st.Cache.Lookups)
	}
	for name, h := range stages {
		st.Stages[name] = stageStats{
			Count:   h.Count(),
			TotalMs: ms(h.Sum()),
			P50us:   us(h.Quantile(0.5)),
			P90us:   us(h.Quantile(0.9)),
			P99us:   us(h.Quantile(0.99)),
		}
	}

	var sum batcher.Snapshot
	var occ stats.CountHistogram
	var wait stats.Histogram
	for _, b := range cur.backend.Batchers() {
		sum.Add(b.Stats())
		occ.Merge(b.Occupancy())
		wait.Merge(b.QueueWait())
	}
	st.Batching = batchStats{
		Snapshot:       sum,
		CoalesceRatio:  sum.CoalesceRatio(),
		OccupancyMean:  occ.Mean(),
		OccupancyP50:   occ.Quantile(0.5),
		OccupancyP90:   occ.Quantile(0.9),
		OccupancyP99:   occ.Quantile(0.99),
		OccupancySum:   occ.Sum(),
		OccupancyCount: occ.Count(),
		QueueWaitP50:   us(wait.Quantile(0.5)),
		QueueWaitP90:   us(wait.Quantile(0.9)),
		QueueWaitP99:   us(wait.Quantile(0.99)),
		QueueWaitSum:   us(wait.Sum()),
		QueueWaitCount: wait.Count(),
	}
	return st
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, s.scrape())
}

// metric is one /metrics family: its name, its HELP text, and the
// /v1/stats fields its samples report — one for a gauge; a summary's
// 0.5, 0.9 and 0.99 quantiles, then its sum and count.
//
// A field is a path into the /v1/stats JSON, member names joined by
// dots. A member written name[label] or name[label=key] is a list or
// an object with one sample per item, labeled label = the item's key
// member (key defaults to label) or, in an object, the item's name. A
// leaf that is a list reports its length and a boolean 1 or 0 (a
// leading ! negates it); a leaf named *_us or *_ms is reported in
// seconds. A family whose field the scrape omits is not emitted.
type metric struct {
	name, help string
	fields     []string
}

func gauge(name, help, field string) metric { return metric{name, help, []string{field}} }

func summary(name, help string, fields ...string) metric { return metric{name, help, fields} }

// metricTable is every /metrics family, in exposition order. A family
// is wholly labeled or wholly unlabeled, hence tgopt_cache_layer_*
// beside the tgopt_cache_* totals.
var metricTable = []metric{
	gauge("tgopt_graph_nodes", "Nodes in the serving graph.", "num_nodes"),
	gauge("tgopt_graph_edges", "Interactions ingested.", "num_edges"),
	gauge("tgopt_cache_items", "Memoized embeddings resident.", "cache_items"),
	gauge("tgopt_cache_bytes", "Slab bytes of the caches: row chunks, slots and key index.", "cache_bytes"),
	gauge("tgopt_cache_hit_rate", "Memo cache hits per lookup since boot.", "hit_rate"),
	gauge("tgopt_cache_lookups_total", "Memo cache lookups.", "cache.lookups"),
	gauge("tgopt_cache_hits_total", "Memo cache hits.", "cache.hits"),
	gauge("tgopt_cache_misses_total", "Memo cache misses.", "cache.misses"),
	gauge("tgopt_cache_layer_entries", "Memoized embeddings resident in RAM for the layer.", "cache_layers[layer].items"),
	gauge("tgopt_cache_layer_bytes", "Slab bytes of the layer's cache: row chunks, slots and key index.", "cache_layers[layer].bytes"),
	gauge("tgopt_cache_layer_index_records", "Live invalidation-index records (target + support) for the layer.", "cache_layers[layer].index_records"),
	gauge("tgopt_cache_layer_lookups_total", "Layer cache lookups.", "cache_layers[layer].lookups"),
	gauge("tgopt_cache_layer_hits_total", "Layer cache hits.", "cache_layers[layer].hits"),
	gauge("tgopt_cache_layer_misses_total", "Layer cache misses.", "cache_layers[layer].misses"),
	gauge("tgopt_top_memo_lookups_total", "Top-layer memo lookups (target rows).", "cache.top_memo.lookups"),
	gauge("tgopt_top_memo_hits_total", "Top-layer rows answered from the memo without recomputing.", "cache.top_memo.hits"),
	gauge("tgopt_top_memo_stores_total", "Top-layer rows stored into the memo.", "cache.top_memo.stores"),
	gauge("tgopt_wire_rows_total", "Embedding rows encoded into /v1/embed responses.", "wire.rows"),
	gauge("tgopt_wire_row_text_hits_total", "Encoded embedding rows whose text was copied from the row-text memo instead of formatted.", "wire.row_text_hits"),
	gauge("tgopt_requests_total", "API requests handled.", "requests"),
	gauge("tgopt_ingested_total", "Edges accepted via /v1/ingest.", "ingested"),
	gauge("tgopt_ingest_late_accepted_total", "Out-of-order edges absorbed inside the lateness window.", "ingest.late_accepted"),
	gauge("tgopt_ingest_late_dropped_total", "Edges dropped below the low-watermark.", "ingest.late_dropped"),
	gauge("tgopt_ingest_watermark", "Low-watermark: edges older than this are dropped.", "ingest.watermark"),
	gauge("tgopt_cache_invalidated_total", "Memoized embeddings dropped by the invalidation of accepted edges, appended or late.", "ingest.invalidated"),
	gauge("tgopt_inflight_requests", "Requests currently executing.", "in_flight"),
	gauge("tgopt_rejected_total", "Requests rejected with 429 at the in-flight limit.", "rejected"),
	gauge("tgopt_timeouts_total", "Requests that exceeded the deadline (504).", "timeouts"),
	gauge("tgopt_panics_total", "Handler panics recovered to 500.", "panics"),
	gauge("tgopt_client_cancels_total", "Computations abandoned because the client went away (499-style).", "client_cancels"),
	gauge("tgopt_unavailable_total", "Computations failed server-side (503), client cancels excluded.", "unavailable"),
	gauge("tgopt_snapshots_total", "Background cache snapshots written.", "snapshots"),
	gauge("tgopt_snapshot_errors_total", "Cache snapshot or warm-start failures.", "snapshot_errors"),
	gauge("tgopt_model_version", "Params version currently serving.", "model.version"),
	gauge("tgopt_model_swaps_total", "Successful parameter hot-swaps since boot.", "model.swaps"),
	gauge("tgopt_model_rollbacks_total", "Hot-swaps rejected (corrupt or failed snapshot); the previous version kept serving.", "model.rollbacks"),
	gauge("tgopt_model_last_swap_timestamp_seconds", "Unix time of the last successful hot-swap (0 = never).", "model.last_swap_unix"),
	gauge("tgopt_batch_enqueued_total", "Targets enqueued into the micro-batcher.", "batching.enqueued"),
	gauge("tgopt_batch_coalesced_total", "Targets that joined a fused pass another request opened.", "batching.coalesced"),
	gauge("tgopt_batch_coalesce_ratio", "Fraction of targets that joined a fused pass another request opened.", "batching.coalesce_ratio"),
	gauge("tgopt_batch_passes_total", "Fused engine passes executed.", "batching.batches"),
	gauge("tgopt_batch_panics_total", "Fused passes that panicked (recovered to errors).", "batching.panics"),
	summary("tgopt_batch_occupancy", "Targets per fused pass.",
		"batching.occupancy_p50", "batching.occupancy_p90", "batching.occupancy_p99", "batching.occupancy_sum", "batching.occupancy_count"),
	summary("tgopt_batch_queue_wait_seconds", "Enqueue-to-flush wait per request.",
		"batching.queue_wait_p50_us", "batching.queue_wait_p90_us", "batching.queue_wait_p99_us", "batching.queue_wait_sum_us", "batching.queue_wait_count"),
	gauge("tgopt_shards", "Configured shard count.", "shards.shards"),
	gauge("tgopt_shards_healthy", "Shards currently up (not crashed).", "shards.healthy"),
	gauge("tgopt_routed_around_total", "Calls diverted because the primary shard was unavailable.", "shards.routed_around"),
	gauge("tgopt_partial_responses_total", "Responses served degraded (HTTP 206).", "shards.partial_responses"),
	gauge("tgopt_degraded_targets_total", "Individual targets degraded in partial responses.", "shards.degraded_targets"),
	gauge("tgopt_shard_snapshot_saves_total", "Per-shard cache snapshots written.", "shards.snapshot_saves"),
	gauge("tgopt_shard_snapshot_errors_total", "Per-shard snapshot save/load failures.", "shards.snapshot_errors"),
	gauge("tgopt_shard_snapshot_loads_total", "Shards warm-started from a snapshot.", "shards.snapshot_loads"),
	gauge("tgopt_shard_up", "1 if the shard is live, 0 while crashed/rebuilding.", "!shards.shards[shard=id].crashed"),
	gauge("tgopt_shard_calls_total", "Embed legs executed by the shard.", "shards.shards[shard=id].calls"),
	gauge("tgopt_shard_errors_total", "Failed legs (timeouts and panics excluded).", "shards.shards[shard=id].errors"),
	gauge("tgopt_shard_timeouts_total", "Legs that exceeded their deadline budget.", "shards.shards[shard=id].timeouts"),
	gauge("tgopt_shard_panics_total", "Engine panics contained by the shard boundary.", "shards.shards[shard=id].panics"),
	gauge("tgopt_shard_restarts_total", "Supervisor restarts completed.", "shards.shards[shard=id].restarts"),
	summary("tgopt_stage_latency_seconds", "Engine per-stage latency quantiles.",
		"stages[stage].p50_us", "stages[stage].p90_us", "stages[stage].p99_us", "stages[stage].total_ms", "stages[stage].count"),
}

// handleMetrics renders metricTable over one scrape in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	body, err := json.Marshal(s.scrape())
	var snap any
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode error: %v", err)
		return
	}
	var b strings.Builder
	for _, m := range metricTable {
		m.write(&b, snap)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String())
}

// write renders the family's samples in snap, nothing if it has none.
func (m metric) write(b *strings.Builder, snap any) {
	cols := make([][]sample, len(m.fields))
	for i, f := range m.fields {
		cols[i] = samples(snap, f)
	}
	if len(cols[0]) == 0 {
		return
	}
	if len(cols) == 1 {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", m.name, m.help, m.name)
		for _, s := range cols[0] {
			fmt.Fprintf(b, "%s%s %g\n", m.name, braced(s.labels), s.value)
		}
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s summary\n", m.name, m.help, m.name)
	for j, s := range cols[0] {
		for i, q := range []string{"0.5", "0.9", "0.99"} {
			fmt.Fprintf(b, "%s{%s} %g\n", m.name, joinLabel(s.labels, "quantile", q), cols[i][j].value)
		}
		fmt.Fprintf(b, "%s_sum%s %g\n%s_count%s %g\n", m.name, braced(s.labels), cols[3][j].value, m.name, braced(s.labels), cols[4][j].value)
	}
}

// sample is one value a field reads, with the labels of the lists and
// objects on its path (`a="x",b="y"`, or "").
type sample struct {
	labels string
	value  float64
}

// samples returns what field reads in snap, the decoded /v1/stats JSON,
// with its unit converted (metric).
func samples(snap any, field string) []sample {
	path, neg := strings.CutPrefix(field, "!")
	out := walk(snap, path, "", nil)
	leaf := path[strings.LastIndex(path, ".")+1:]
	for i := range out {
		switch {
		case neg:
			out[i].value = 1 - out[i].value
		case strings.HasSuffix(leaf, "_us"):
			out[i].value /= 1e6
		case strings.HasSuffix(leaf, "_ms"):
			out[i].value /= 1e3
		}
	}
	return out
}

// walk appends to out the samples path reads in v, each labeled with
// labels and the labels of the lists and objects the path steps into.
func walk(v any, path, labels string, out []sample) []sample {
	if path == "" {
		var f float64
		switch v := v.(type) {
		case float64:
			f = v
		case bool:
			if v {
				f = 1
			}
		case []any:
			f = float64(len(v))
		}
		return append(out, sample{labels, f})
	}
	member, rest, _ := strings.Cut(path, ".")
	name, label, each := strings.Cut(member, "[")
	obj, _ := v.(map[string]any)
	v, ok := obj[name]
	if !ok {
		return out
	}
	if !each {
		return walk(v, rest, labels, out)
	}
	label, key, _ := strings.Cut(strings.TrimSuffix(label, "]"), "=")
	if key == "" {
		key = label
	}
	switch items := v.(type) {
	case []any:
		for _, item := range items {
			m, _ := item.(map[string]any)
			out = walk(item, rest, joinLabel(labels, label, m[key]), out)
		}
	case map[string]any:
		for _, k := range sortedKeys(items) {
			out = walk(items[k], rest, joinLabel(labels, label, k), out)
		}
	}
	return out
}

// joinLabel appends name="value" to a label list.
func joinLabel(labels, name string, value any) string {
	l := fmt.Sprintf("%s=%q", name, fmt.Sprint(value))
	if labels == "" {
		return l
	}
	return labels + "," + l
}

// braced is a sample's label set as it follows the family name.
func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

package serve

import (
	"fmt"
	"strings"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/stats"
	"tgopt/internal/tgat"
)

// NewSharded builds a server whose serving plane is partitioned into
// cfg.Shards fault-isolated engine shards behind a scatter-gather
// router (package shard): each shard owns a full replica of the edge
// stream plus its private memo caches, a circuit breaker routes around
// failures, and a supervisor restarts crashed shards from their last
// snapshot. dyn stays the authoritative graph for /v1/ingest,
// /v1/stats, and /v1/explain; the router replicates accepted edges to
// every shard. opt is the same engine option set New takes — per-shard
// cache capacities are derived from it so total footprint matches the
// unsharded deployment.
func NewSharded(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, cfg shard.Config) (*Server, error) {
	s := &Server{
		dyn:     dyn,
		model:   model,
		hitRate: stats.NewHitRate(10),
	}
	s.modelVersion.Store(opt.ModelVersion)
	cfg.ModelVersion = opt.ModelVersion // pool and server agree on the boot version
	opt.HitRate = s.hitRate             // concurrency-safe; shared across shards
	r, err := shard.NewRouter(model, dyn, opt, cfg)
	if err != nil {
		return nil, err
	}
	s.router = r
	return s, nil
}

// Router exposes the shard router in sharded mode (nil otherwise).
func (s *Server) Router() *shard.Router { return s.router }

// Sharded reports whether this server scatter-gathers across a shard
// pool.
func (s *Server) Sharded() bool { return s.router != nil }

// The helpers below make cache/engine introspection mode-agnostic:
// single-engine mode reads the one engine, sharded mode aggregates
// across the pool.

func (s *Server) cacheLen() int {
	if s.router != nil {
		return s.router.CacheLen()
	}
	return s.engine.CacheLen()
}

func (s *Server) cacheBytes() int64 {
	if s.router != nil {
		return s.router.CacheBytes()
	}
	return s.engine.CacheBytes()
}

func (s *Server) cacheStats() core.CacheStats {
	if s.router != nil {
		return s.router.CacheStats()
	}
	return s.engine.CacheStats()
}

func (s *Server) layerCacheStats() []core.LayerCacheStats {
	if s.router != nil {
		return s.router.LayerCacheStats()
	}
	return s.engine.LayerCacheStats()
}

func (s *Server) topMemoStats() core.TopMemoStats {
	if s.router != nil {
		return s.router.TopMemoStats()
	}
	return s.engine.TopMemoStats()
}

func (s *Server) staleStoreSkips() int64 {
	if s.router != nil {
		return s.router.StaleStoreSkips()
	}
	return s.engine.StaleStoreSkips()
}

// stageSnapshots returns per-stage latency snapshots: the single
// engine's histograms, or bucket-wise merges across every live shard
// (per-shard histogram geometry is identical, so counts add).
func (s *Server) stageSnapshots() map[string]stats.HistogramSnapshot {
	if s.router == nil {
		out := make(map[string]stats.HistogramSnapshot, len(core.Stages))
		for st, h := range s.engine.StageStats() {
			out[st] = h.Snapshot()
		}
		return out
	}
	out := make(map[string]stats.HistogramSnapshot, len(core.Stages))
	for _, eng := range s.router.Engines() {
		for st, h := range eng.StageStats() {
			snap := h.Snapshot()
			agg, ok := out[st]
			if !ok {
				out[st] = snap
				continue
			}
			agg.Count += snap.Count
			agg.Sum += snap.Sum
			for i := range agg.Counts {
				agg.Counts[i] += snap.Counts[i]
			}
			out[st] = agg
		}
	}
	return out
}

// snapshotQuantile mirrors stats.Histogram.Quantile over a (possibly
// merged) snapshot: the upper bound of the first bucket whose
// cumulative count reaches q·Count.
func snapshotQuantile(h stats.HistogramSnapshot, q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(h.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			return h.Bounds[i]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// stageStatsJSON renders the per-stage latency snapshots for /v1/stats.
func (s *Server) stageStatsJSON() map[string]stageStats {
	snaps := s.stageSnapshots()
	out := make(map[string]stageStats, len(snaps))
	for st, h := range snaps {
		out[st] = stageStats{
			Count:   h.Count,
			TotalMs: float64(h.Sum) / float64(time.Millisecond),
			P50us:   float64(snapshotQuantile(h, 0.5)) / float64(time.Microsecond),
			P90us:   float64(snapshotQuantile(h, 0.9)) / float64(time.Microsecond),
			P99us:   float64(snapshotQuantile(h, 0.99)) / float64(time.Microsecond),
		}
	}
	return out
}

// writeLayerCacheMetrics renders the per-layer memo-cache breakdown as
// layer-labeled series (summed across shards in sharded mode). The
// per-layer families are named tgopt_cache_layer_* — distinct from the
// unlabeled tgopt_cache_* aggregates so each Prometheus family stays
// either fully labeled or fully unlabeled.
func (s *Server) writeLayerCacheMetrics(b *strings.Builder) {
	layers := s.layerCacheStats()
	if len(layers) == 0 {
		return
	}
	for _, series := range []struct {
		name, help string
		value      func(core.LayerCacheStats) float64
	}{
		{"tgopt_cache_layer_entries", "Memoized embeddings resident in RAM for the layer.", func(v core.LayerCacheStats) float64 { return float64(v.Items) }},
		{"tgopt_cache_layer_bytes", "Approximate RAM footprint of the layer's cache.", func(v core.LayerCacheStats) float64 { return float64(v.Bytes) }},
		{"tgopt_cache_layer_lookups_total", "Layer cache lookups.", func(v core.LayerCacheStats) float64 { return float64(v.Lookups) }},
		{"tgopt_cache_layer_hits_total", "Layer cache hits (RAM tier).", func(v core.LayerCacheStats) float64 { return float64(v.Hits) }},
		{"tgopt_cache_layer_misses_total", "Layer cache misses.", func(v core.LayerCacheStats) float64 { return float64(v.Misses) }},
		{"tgopt_cache_layer_spill_hits_total", "Layer lookups served from the disk spill tier.", func(v core.LayerCacheStats) float64 { return float64(v.SpillHits) }},
		{"tgopt_cache_layer_admit_rejected_total", "Layer stores rejected by TinyLFU admission.", func(v core.LayerCacheStats) float64 { return float64(v.AdmitRejected) }},
		{"tgopt_cache_layer_spill_entries", "Entries resident in the layer's disk spill tier.", func(v core.LayerCacheStats) float64 { return float64(v.Spill.Entries) }},
		{"tgopt_cache_layer_spill_bytes", "Bytes resident in the layer's disk spill tier.", func(v core.LayerCacheStats) float64 { return float64(v.Spill.Bytes) }},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", series.name, series.help, series.name)
		for _, v := range layers {
			fmt.Fprintf(b, "%s{layer=\"%d\"} %g\n", series.name, v.Layer, series.value(v))
		}
	}
}

// writeShardMetrics renders the shard pool's health onto /metrics:
// router-level counters plus per-shard labeled series for breaker
// state and restart accounting.
func (s *Server) writeShardMetrics(b *strings.Builder, write func(name, help string, value float64)) {
	st := s.router.Stats()
	write("tgopt_shards", "Configured shard count.", float64(len(st.Shards)))
	write("tgopt_shards_healthy", "Shards currently eligible for traffic (not crashed, breaker not open).", float64(st.Healthy))
	write("tgopt_shard_quorum", "Healthy shards required to accept requests.", float64(st.Quorum))
	write("tgopt_hedges_total", "Speculative hedge legs launched.", float64(st.Hedges))
	write("tgopt_hedge_wins_total", "Hedge legs that beat the primary.", float64(st.HedgeWins))
	write("tgopt_routed_around_total", "Calls diverted because the primary shard was unavailable.", float64(st.RoutedAround))
	write("tgopt_partial_responses_total", "Responses served degraded (HTTP 206).", float64(st.PartialResponses))
	write("tgopt_degraded_targets_total", "Individual targets degraded in partial responses.", float64(st.DegradedTargets))
	write("tgopt_quorum_rejects_total", "Requests rejected 503 because healthy shards fell below quorum.", float64(st.QuorumRejects))
	write("tgopt_replica_divergence_total", "Replica ingest outcomes disagreeing with the authoritative graph.", float64(st.Divergence))
	write("tgopt_shard_snapshot_saves_total", "Per-shard cache snapshots written.", float64(st.SnapshotSaves))
	write("tgopt_shard_snapshot_errors_total", "Per-shard snapshot save/load failures.", float64(st.SnapshotErrors))
	write("tgopt_shard_snapshot_loads_total", "Shards warm-started from a snapshot.", float64(st.SnapshotLoads))
	for _, series := range []struct {
		name, help string
		value      func(shard.Status) float64
	}{
		{"tgopt_shard_up", "1 if the shard is live, 0 while crashed/rebuilding.", func(v shard.Status) float64 {
			if v.Crashed {
				return 0
			}
			return 1
		}},
		{"tgopt_shard_breaker_open", "1 if the shard's breaker is open.", func(v shard.Status) float64 {
			if v.Breaker == "open" {
				return 1
			}
			return 0
		}},
		{"tgopt_shard_calls_total", "Embed legs executed by the shard.", func(v shard.Status) float64 { return float64(v.Calls) }},
		{"tgopt_shard_errors_total", "Failed legs (timeouts and panics excluded).", func(v shard.Status) float64 { return float64(v.Errors) }},
		{"tgopt_shard_timeouts_total", "Legs that exceeded their deadline budget.", func(v shard.Status) float64 { return float64(v.Timeouts) }},
		{"tgopt_shard_panics_total", "Engine panics contained by the shard boundary.", func(v shard.Status) float64 { return float64(v.Panics) }},
		{"tgopt_shard_restarts_total", "Supervisor restarts completed.", func(v shard.Status) float64 { return float64(v.Restarts) }},
		{"tgopt_shard_breaker_opens_total", "Breaker transitions to open.", func(v shard.Status) float64 { return float64(v.BreakerOpens) }},
		{"tgopt_shard_breaker_half_opens_total", "Breaker transitions to half-open.", func(v shard.Status) float64 { return float64(v.BreakerHalfOpens) }},
		{"tgopt_shard_breaker_closes_total", "Breaker transitions back to closed.", func(v shard.Status) float64 { return float64(v.BreakerCloses) }},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", series.name, series.help, series.name)
		for _, v := range st.Shards {
			fmt.Fprintf(b, "%s{shard=\"%d\"} %g\n", series.name, v.ID, series.value(v))
		}
	}
}

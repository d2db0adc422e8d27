package serve

import (
	"fmt"
	"strings"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/tgat"
)

// NewSharded builds a server whose serving plane is partitioned into
// cfg.Shards fault-isolated engine shards behind a scatter-gather
// router (package shard): every shard's engine samples dyn and keeps
// its private memo caches, the router routes around a crashed shard,
// and a supervisor restarts it from its last snapshot.
// /v1/ingest writes dyn, and the router runs each accepted edge's
// invalidation on every shard. opt is the same engine option set New
// takes — per-shard cache capacities are derived from it so total
// footprint matches the unsharded deployment.
func NewSharded(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, cfg shard.Config) (*Server, error) {
	s := newServer(model, dyn)
	r, err := shard.NewRouter(model, dyn, opt, cfg)
	if err != nil {
		return nil, err
	}
	s.backend = r
	return s, nil
}

// Router exposes the shard router in sharded mode (nil otherwise).
func (s *Server) Router() *shard.Router {
	r, _ := s.backend.(*shard.Router)
	return r
}

// Sharded reports whether this server scatter-gathers across a shard
// pool.
func (s *Server) Sharded() bool { return s.Router() != nil }

// shardHealth snapshots the pool's per-shard crash/restart state and
// the router's failover/degradation counters — what a Router
// has and a single Core does not. Nil on an unsharded server.
func (s *Server) shardHealth() *shard.RouterStats {
	r := s.Router()
	if r == nil {
		return nil
	}
	st := r.Stats()
	return &st
}

// writeShardMetrics renders the shard pool's health onto /metrics:
// router-level counters plus per-shard labeled series for up state and
// restart accounting.
func writeShardMetrics(b *strings.Builder, write func(name, help string, value float64), st *shard.RouterStats) {
	write("tgopt_shards", "Configured shard count.", float64(len(st.Shards)))
	write("tgopt_shards_healthy", "Shards currently up (not crashed).", float64(st.Healthy))
	write("tgopt_routed_around_total", "Calls diverted because the primary shard was unavailable.", float64(st.RoutedAround))
	write("tgopt_partial_responses_total", "Responses served degraded (HTTP 206).", float64(st.PartialResponses))
	write("tgopt_degraded_targets_total", "Individual targets degraded in partial responses.", float64(st.DegradedTargets))
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
		{"tgopt_shard_calls_total", "Embed legs executed by the shard.", func(v shard.Status) float64 { return float64(v.Calls) }},
		{"tgopt_shard_errors_total", "Failed legs (timeouts and panics excluded).", func(v shard.Status) float64 { return float64(v.Errors) }},
		{"tgopt_shard_timeouts_total", "Legs that exceeded their deadline budget.", func(v shard.Status) float64 { return float64(v.Timeouts) }},
		{"tgopt_shard_panics_total", "Engine panics contained by the shard boundary.", func(v shard.Status) float64 { return float64(v.Panics) }},
		{"tgopt_shard_restarts_total", "Supervisor restarts completed.", func(v shard.Status) float64 { return float64(v.Restarts) }},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", series.name, series.help, series.name)
		for _, v := range st.Shards {
			fmt.Fprintf(b, "%s{shard=\"%d\"} %g\n", series.name, v.ID, series.value(v))
		}
	}
}

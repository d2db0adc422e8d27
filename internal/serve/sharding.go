package serve

import (
	"fmt"
	"strings"

	"tgopt/internal/shard"
)

// Router exposes the serving version's shard router in sharded mode (nil
// otherwise).
func (s *Server) Router() *shard.Router {
	r, _ := s.cur.Load().backend.(*shard.Router)
	return r
}

// shardHealth snapshots the pool's per-shard crash/restart state and
// the router's failover/degradation counters — what a Router
// has and a single Core does not. Nil on an unsharded server.
func shardHealth(b backend) *shard.RouterStats {
	r, ok := b.(*shard.Router)
	if !ok {
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

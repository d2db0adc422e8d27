package main

import (
	"math"
	"sort"
)

// metricDef names one metric, its unit and which direction is better.
// Bound is the share of the base median by which an end-to-end metric
// may get worse before compare calls it a regression; Abs marks a bound
// that is an absolute difference (ratios that sit at 0). Gated metrics
// are the ones BENCHMARK.json lists under end_to_end: the driver's
// contract wants metrics that are never 0, so the two failure ratios
// are reported by `run` and `compare` but gated here, not there.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
	Abs    bool    `json:"absolute,omitempty"`
	Gated  bool    `json:"-"`
}

// endToEnd is the same nine metrics on every workload. Timings are
// measured with tracing off.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "targets_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cpu_ms_per_target", Unit: "ms", Better: "lower", Bound: 0.20, Gated: true},
	{Name: "allocs_per_target", Unit: "count", Better: "lower", Bound: 0.05, Gated: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.12, Gated: true},
	{Name: "slo_miss_frac", Unit: "ratio", Better: "lower", Bound: 0.02, Abs: true},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 0.001, Abs: true},
}

// perLayer lists every layer metric the traced run reports, in the
// order the README's table gives them. All are printed on every
// workload; a layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{Name: "tensor.matmul_packed_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "tensor.matmul_sparse_gflops", Unit: "gflop/s", Better: "higher"},
	{Name: "nn.attention_us_per_target", Unit: "us", Better: "lower"},
	{Name: "graph.sample_us_per_target", Unit: "us", Better: "lower"},
	{Name: "graph.ingest_us_per_edge", Unit: "us", Better: "lower"},
	{Name: "graph.late_frac", Unit: "ratio", Better: "lower"},
	{Name: "graph.dropped_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.embed_us_per_target", Unit: "us", Better: "lower"},
	{Name: "core.dedup_us_per_target", Unit: "us", Better: "lower"},
	{Name: "core.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_lookup_us_per_key", Unit: "us", Better: "lower"},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.memo_hit_ratio_l1", Unit: "ratio", Better: "higher"},
	{Name: "core.memo_hit_ratio_l2", Unit: "ratio", Better: "higher"},
	{Name: "core.memo_hit_ratio_l3", Unit: "ratio", Better: "higher"},
	{Name: "core.cache_store_us_per_entry", Unit: "us", Better: "lower"},
	{Name: "core.evictions_per_target", Unit: "count", Better: "lower"},
	{Name: "core.timeenc_us_per_delta", Unit: "us", Better: "lower"},
	{Name: "core.timeenc_table_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.invalidate_us_per_edge", Unit: "us", Better: "lower"},
	{Name: "core.invalidated_per_edge", Unit: "count", Better: "lower"},
	{Name: "core.cache_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "tgat.layer_us_per_target", Unit: "us", Better: "lower"},
	{Name: "tgat.score_us_per_edge", Unit: "us", Better: "lower"},
	{Name: "tgat.baseline_us_per_target", Unit: "us", Better: "lower"},
	{Name: "tgat.speedup_vs_baseline", Unit: "ratio", Better: "higher"},
	{Name: "batcher.self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "batcher.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "batcher.occupancy_mean", Unit: "count", Better: "higher"},
	{Name: "batcher.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.router_self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "shard.leg_skew", Unit: "ratio", Better: "lower"},
	{Name: "shard.fallbacks", Unit: "count", Better: "lower"},
	{Name: "shard.hedges", Unit: "count", Better: "lower"},
	{Name: "shard.apply_us_per_edge", Unit: "us", Better: "lower"},
	{Name: "serve.engine_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.handler_self_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.transport_us_per_req", Unit: "us", Better: "lower"},
	{Name: "serve.residual_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.resp_bytes_per_target", Unit: "bytes", Better: "lower"},
	{Name: "serve.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.lat_samples", Unit: "count", Better: "higher"},
	{Name: "serve.offered_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.gen_late_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.backlog_frac", Unit: "ratio", Better: "lower"},
	{Name: "serve.status_2xx", Unit: "count", Better: "higher"},
	{Name: "serve.status_429", Unit: "count", Better: "lower"},
	{Name: "serve.status_5xx", Unit: "count", Better: "lower"},
	{Name: "bench.slo_miss_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.fail_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.host_speed_factor", Unit: "ratio", Better: "lower"},
	{Name: "bench.raw_targets_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.raw_lat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.host_calib_ms_before", Unit: "ms", Better: "lower"},
	{Name: "bench.host_calib_ms_after", Unit: "ms", Better: "lower"},
}

// metricValue is one reported number, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and attaches the unit from the
// table, so a metric can never be printed without one.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef, gatedOnly bool) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if gatedOnly && !d.Gated {
			continue
		}
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out
}

// percentile returns the q-quantile (0..1) of xs by nearest rank.
// xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

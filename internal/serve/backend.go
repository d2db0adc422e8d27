package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/stats"
)

// backend is the compute plane under the handlers, one per params
// version. *shard.Core (one engine over the server's graph) and
// *shard.Router (N cores over that graph behind a scatter-gather) both
// satisfy it as they are; their methods say what each call means there.
// Engines and Batchers are the live cores' parts, for the per-scrape
// totals.
type backend interface {
	EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error)
	Apply(e graph.Edge, res graph.IngestResult) int
	SaveSnapshot() error
	WarmStart() (warmed int, err error)
	Engines() []*core.Engine
	Batchers() []*batcher.Batcher
}

// engineTotals is one scrape's view of the serving version's live
// engines: every cache, memo and stage figure /v1/stats and /metrics
// report, summed over backend.Engines() once. Stage histograms share
// one bucket geometry, so the merged quantiles are those of the pooled
// observations.
type engineTotals struct {
	items      int
	bytes      int64
	cache      core.CacheStats
	layers     []core.LayerCacheStats
	topMemo    core.TopMemoStats
	staleSkips int64
	stages     map[string]*stats.Histogram
}

func newEngineTotals(b backend) engineTotals {
	engs := b.Engines()
	t := engineTotals{
		layers: shard.MergeLayerCacheStats(engs),
		stages: make(map[string]*stats.Histogram, len(core.Stages)),
	}
	for _, st := range core.Stages {
		t.stages[st] = stats.NewHistogram()
	}
	for _, l := range t.layers { // the aggregates are the layers' sums: read each cache once
		t.items += l.Items
		t.bytes += l.Bytes
		t.cache.Add(l.CacheStats)
	}
	for _, eng := range engs {
		t.topMemo.Add(eng.TopMemoStats())
		t.staleSkips += eng.StaleStoreSkips()
		for st, h := range eng.StageStats() {
			t.stages[st].Merge(h)
		}
	}
	return t
}

// hitRate is the memo caches' hits per lookup, summed over every
// engine and cached layer of the serving version (0 before the first
// lookup).
func (t engineTotals) hitRate() float64 {
	if t.cache.Lookups == 0 {
		return 0
	}
	return float64(t.cache.Hits) / float64(t.cache.Lookups)
}

// stageStatsJSON renders the per-stage latency histograms for
// /v1/stats.
func (t engineTotals) stageStatsJSON() map[string]stageStats {
	out := make(map[string]stageStats, len(t.stages))
	for st, h := range t.stages {
		out[st] = stageStats{
			Count:   h.Count(),
			TotalMs: float64(h.Sum()) / float64(time.Millisecond),
			P50us:   float64(h.Quantile(0.5)) / float64(time.Microsecond),
			P90us:   float64(h.Quantile(0.9)) / float64(time.Microsecond),
			P99us:   float64(h.Quantile(0.99)) / float64(time.Microsecond),
		}
	}
	return out
}

// writeLayerCacheMetrics renders the per-layer memo-cache breakdown as
// layer-labeled series. The per-layer families are named
// tgopt_cache_layer_* — distinct from the unlabeled tgopt_cache_*
// aggregates so each Prometheus family stays either fully labeled or
// fully unlabeled.
func writeLayerCacheMetrics(b *strings.Builder, layers []core.LayerCacheStats) {
	if len(layers) == 0 {
		return
	}
	for _, series := range []struct {
		name, help string
		value      func(core.LayerCacheStats) float64
	}{
		{"tgopt_cache_layer_entries", "Memoized embeddings resident in RAM for the layer.", func(v core.LayerCacheStats) float64 { return float64(v.Items) }},
		{"tgopt_cache_layer_bytes", "Slab bytes of the layer's cache: row chunks plus slots.", func(v core.LayerCacheStats) float64 { return float64(v.Bytes) }},
		{"tgopt_cache_layer_index_records", "Live invalidation-index records (target + support) for the layer.", func(v core.LayerCacheStats) float64 { return float64(v.IndexRecords) }},
		{"tgopt_cache_layer_lookups_total", "Layer cache lookups.", func(v core.LayerCacheStats) float64 { return float64(v.Lookups) }},
		{"tgopt_cache_layer_hits_total", "Layer cache hits.", func(v core.LayerCacheStats) float64 { return float64(v.Hits) }},
		{"tgopt_cache_layer_misses_total", "Layer cache misses.", func(v core.LayerCacheStats) float64 { return float64(v.Misses) }},
		{"tgopt_cache_layer_admit_rejected_total", "Layer stores rejected by TinyLFU admission.", func(v core.LayerCacheStats) float64 { return float64(v.AdmitRejected) }},
	} {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", series.name, series.help, series.name)
		for _, v := range layers {
			fmt.Fprintf(b, "%s{layer=\"%d\"} %g\n", series.name, v.Layer, series.value(v))
		}
	}
}

package shard

import (
	"context"
	"fmt"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tgat"
)

// Core is the one compute unit under serving: an engine over one
// dynamic graph, the batcher in front of the engine, and what a
// serving plane asks of the pair — embed, invalidate for an edge,
// snapshot. An unsharded server holds one over its graph; a Router
// holds one per shard over that same graph and discards it whole on a
// crash (a panic may have poisoned its engine's locks; the graph's are
// released by defer). A Core has no ring or supervisor: it answers or
// it fails. Its model never changes: a params swap builds a new Core.
type Core struct {
	dyn *graph.Dynamic
	eng *core.Engine
	bat *batcher.Batcher // over eng, possibly wrapped by Config.WrapEmbedder
	cfg Config           // the snapshot file is cfg.CacheFile
}

// NewCore builds a batched engine over dyn, snapshotting as cfg says
// (cfg.Shards is not read). An engine over a live graph always keeps
// the per-node key index, so edge invalidation is targeted rather than
// a full cache clear — even on a purely chronological stream, where an
// append must selectively drop memos served at *future* timestamps
// whose sampled windows it lands in (core.Engine.InvalidateEdge).
func NewCore(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, cfg Config) *Core {
	return newCore(model, dyn, opt, cfg.WithDefaults(), 0)
}

// newCore is NewCore for shard id, whose cfg has its defaults.
func newCore(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, cfg Config, id int) *Core {
	sampler := graph.NewDynamicSampler(dyn, model.Cfg.NumNeighbors, graph.MostRecent, 0)
	eng := core.NewEngine(model, sampler, opt)
	var emb core.Embedder = eng
	if cfg.WrapEmbedder != nil {
		emb = cfg.WrapEmbedder(id, emb)
	}
	return &Core{dyn: dyn, eng: eng, bat: batcher.New(emb, eng.Dim()), cfg: cfg}
}

// Engines returns the one engine, in the shape a pool reports its many.
func (c *Core) Engines() []*core.Engine { return []*core.Engine{c.eng} }

// Batchers returns the one batcher, in the shape a pool reports its
// many.
func (c *Core) Batchers() []*batcher.Batcher { return []*batcher.Batcher{c.bat} }

// EmbedRows computes the embeddings of the targets as one slab, row i
// of nodes[i] at [i*dim, (i+1)*dim), through the batcher
// (batcher.Batcher.Embed, which says how long it reads nodes and ts).
// An engine panic comes back as batcher.ErrPassPanicked. degraded is
// always nil — rows degrade only where a Router has a shard to lose.
func (c *Core) EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error) {
	slab, err = c.bat.Embed(ctx, nodes, ts)
	return slab, nil, err
}

// Apply runs the cache invalidation an edge requires once the core's
// graph has absorbed it with outcome res, and returns how many memoized
// embeddings it dropped: none for a dropped edge, else the engine's one
// rule (core.Engine.InvalidateEdge). An append can still invalidate
// memos served at timestamps beyond it; when none exists (the steady
// state) that is a single atomic load.
func (c *Core) Apply(e graph.Edge, res graph.IngestResult) int {
	if res == graph.IngestDropped {
		return 0
	}
	return c.eng.InvalidateEdge(e.Src, e.Dst, e.Time)
}

// SaveSnapshot writes the engine's memo caches to Config.CacheFile
// through the atomic checkpoint writer.
func (c *Core) SaveSnapshot() error {
	if c.cfg.CacheFile == "" {
		return fmt.Errorf("shard: no cache file configured")
	}
	return c.eng.SaveCachesFS(c.cfg.FS, c.cfg.CacheFile)
}

// WarmStart loads the snapshot SaveSnapshot wrote, all-or-nothing, and
// reports how many cores it warmed (one, or none with the error). It
// holds the read side of the graph's write gate, so no gated write
// lands between a row's re-sample and its index record.
func (c *Core) WarmStart() (int, error) {
	gate := c.dyn.Gate()
	gate.RLock()
	defer gate.RUnlock()
	if err := c.eng.LoadCachesFS(c.cfg.FS, c.cfg.CacheFile); err != nil {
		return 0, err
	}
	return 1, nil
}

// AddLayerCacheStats adds one engine's per-layer cache counters into
// sum. The cores of one server run the same cached-layer layout and each
// engine reports in layer order, so section i of one adds to section i
// of the next.
func AddLayerCacheStats(sum, layers []core.LayerCacheStats) []core.LayerCacheStats {
	for i, ls := range layers {
		if i == len(sum) {
			sum = append(sum, ls)
			continue
		}
		sum[i].Items += ls.Items
		sum[i].Bytes += ls.Bytes
		sum[i].IndexRecords += ls.IndexRecords
		sum[i].CacheStats.Add(ls.CacheStats)
	}
	return sum
}

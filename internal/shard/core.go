package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Core is the one compute unit under serving: an engine over one
// dynamic graph, the batcher in front of the engine, and what a
// serving plane asks of the pair — embed, invalidate for an edge,
// snapshot. An unsharded server holds one over its graph; a Router
// holds one per shard over that same graph. A Core is up until a pass
// panics; then it is down for good (the panic may have poisoned its
// engine's locks; the graph's are released by defer), and the server
// replaces the version that holds it. Its model never changes: a params
// swap or a restart builds a new Core.
type Core struct {
	eng *core.Engine
	bat *batcher.Batcher // over eng, possibly wrapped by Config.WrapEmbedder
	cfg Config           // the snapshot file is cfg.CacheFile

	// down is set by the first pass that panics. From then on the core
	// runs no pass, invalidation or save.
	down   atomic.Bool
	onDown func() // see OnDown
}

// ErrShardDown is returned for calls that reach a core that is down.
var ErrShardDown = errors.New("shard: core is down")

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
	c := &Core{eng: eng, cfg: cfg}
	c.bat = batcher.New(guard{emb, c}, eng.Dim())
	return c
}

// guard is the embedder a Core's batcher runs: it refuses a pass once
// the core is down, and takes the core down when a pass panics, whether
// or not anyone still waits for that pass. The batcher recovers the
// panic into batcher.ErrPassPanicked.
type guard struct {
	core.Embedder
	c *Core
}

func (g guard) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if g.c.down.Load() {
		panic(ErrShardDown)
	}
	defer func() {
		if rec := recover(); rec != nil {
			g.c.crash()
			panic(rec)
		}
	}()
	return g.Embedder.EmbedWith(ar, nodes, ts)
}

// crash takes the core down and, the first time, runs the OnDown hook.
func (c *Core) crash() {
	if c.down.CompareAndSwap(false, true) && c.onDown != nil {
		c.onDown()
	}
}

// OnDown makes f run, once, on the goroutine whose pass panicked, when
// the core goes down. Call it before the core's first call.
func (c *Core) OnDown(f func()) { c.onDown = f }

// Up counts the cores that take calls: 1, or 0 once the core is down.
func (c *Core) Up() int {
	if c.down.Load() {
		return 0
	}
	return 1
}

// Engines returns the one engine, in the shape a pool reports its many.
func (c *Core) Engines() []*core.Engine { return []*core.Engine{c.eng} }

// Batchers returns the one batcher, in the shape a pool reports its
// many.
func (c *Core) Batchers() []*batcher.Batcher { return []*batcher.Batcher{c.bat} }

// EmbedRows computes the embeddings of the targets as one slab, row i
// of nodes[i] at [i*dim, (i+1)*dim), through the batcher
// (batcher.Batcher.Embed, which says how long it reads nodes and ts).
// An engine panic comes back as batcher.ErrPassPanicked, and a call to
// a down core as ErrShardDown. degraded is always nil — rows degrade
// only where a Router has a shard to lose.
func (c *Core) EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error) {
	if c.down.Load() {
		return nil, nil, ErrShardDown
	}
	slab, err = c.bat.Embed(ctx, nodes, ts)
	return slab, nil, err
}

// Apply runs the cache invalidation an edge requires once the core's
// graph has absorbed it with outcome res, and returns how many memoized
// embeddings it dropped: none for a dropped edge or a down core, else
// the engine's one rule (core.Engine.InvalidateEdge). An append can
// still invalidate memos served at timestamps beyond it; when none
// exists (the steady state) that is a single atomic load.
func (c *Core) Apply(e graph.Edge, res graph.IngestResult) int {
	if res == graph.IngestDropped || c.down.Load() {
		return 0
	}
	return c.eng.InvalidateEdge(e.Src, e.Dst, e.Time)
}

// SaveSnapshot writes the engine's memo caches to Config.CacheFile
// through the atomic checkpoint writer. A down core refuses, so the
// snapshot it last saved stands.
func (c *Core) SaveSnapshot() error {
	if c.cfg.CacheFile == "" {
		return fmt.Errorf("shard: no cache file configured")
	}
	if c.down.Load() {
		return ErrShardDown
	}
	return c.eng.SaveCachesFS(c.cfg.FS, c.cfg.CacheFile)
}

// WarmStart loads the snapshot SaveSnapshot wrote, all-or-nothing, and
// reports how many cores it warmed (one, or none with the error). The
// caller holds the read side of the graph's write gate, so no gated
// write lands between a row's re-sample and its index record.
func (c *Core) WarmStart() (int, error) {
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

package shard

import (
	"context"
	"errors"
	"fmt"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// errCorePanic wraps a panic recovered on a core's direct (unbatched)
// compute path. The batched path surfaces batcher.ErrPassPanicked
// instead; isPanic recognizes both.
var errCorePanic = errors.New("shard: engine pass panicked")

// isPanic reports whether err means the core's engine panicked (on
// either the direct or the batched path) — the signal that tears a
// shard down and triggers a supervisor restart.
func isPanic(err error) bool {
	return errors.Is(err, errCorePanic) || errors.Is(err, batcher.ErrPassPanicked)
}

// Core is the one compute unit under serving: an engine over one
// dynamic graph, an optional batcher in front of the engine, and what a
// serving plane asks of the pair — embed, invalidate for an edge, swap
// params, snapshot. An unsharded server holds one over its graph; a
// Router holds one per shard over that same graph and discards it whole
// on a crash (a panic may have poisoned its engine's locks; the graph's
// are released by defer). A Core has no ring or supervisor: it answers
// or it fails.
type Core struct {
	model *tgat.Model
	eng   *core.Engine
	emb   core.Embedder // eng, possibly wrapped by Config.WrapEmbedder
	bat   *batcher.Batcher
}

// NewCore builds an engine over dyn. An engine over a live graph always
// keeps the per-node key index, so edge invalidation is targeted rather
// than a full cache clear — even on a purely chronological stream, where
// an append must selectively drop memos served at *future* timestamps
// whose sampled windows it lands in (InvalidateAppend).
func NewCore(model *tgat.Model, dyn *graph.Dynamic, opt core.Options) *Core {
	sampler := graph.NewDynamicSampler(dyn, model.Cfg.NumNeighbors, graph.MostRecent, 0)
	eng := core.NewEngine(model, sampler, opt)
	return &Core{model: model, eng: eng, emb: eng}
}

// Engine returns the core's engine (cache persistence, introspection).
func (c *Core) Engine() *core.Engine { return c.eng }

// Engines returns the one engine, in the shape a pool reports its many.
func (c *Core) Engines() []*core.Engine { return []*core.Engine{c.eng} }

// Batcher returns the core's batcher, or nil when batching is off.
func (c *Core) Batcher() *batcher.Batcher { return c.bat }

// Batchers returns the batcher when batching is on, in the shape a pool
// reports its many.
func (c *Core) Batchers() []*batcher.Batcher {
	if c.bat == nil {
		return nil
	}
	return []*batcher.Batcher{c.bat}
}

// SetBatching routes EmbedRows through a micro-batcher that fuses
// concurrent requests into shared engine passes (package batcher). Call
// before traffic; it is not safe to toggle while requests are in flight.
func (c *Core) SetBatching(cfg batcher.Config) {
	c.bat = batcher.New(c.emb, c.eng.Dim(), cfg)
}

// EmbedRows computes the embeddings of the targets as one slab, row i
// of nodes[i] at [i*dim, (i+1)*dim): through the batcher when batching
// is on, else by a direct engine pass in its own goroutine (the panic
// domain) while the caller stays cancelable on ctx. An engine panic
// comes back as an error on either path. degraded is always nil — rows
// degrade only where a Router has a shard to lose.
func (c *Core) EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error) {
	if c.bat != nil {
		slab, err = c.bat.Embed(ctx, nodes, ts)
		return slab, nil, err
	}
	type result struct {
		slab []float32
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if rec := recover(); rec != nil {
				// The arena is deliberately not returned to the pool: a
				// panic mid-pass may have left it in an arbitrary state.
				ch <- result{nil, fmt.Errorf("%w: %v", errCorePanic, rec)}
			}
		}()
		ar := tensor.GetArena()
		h := c.emb.EmbedWith(ar, nodes, ts)
		slab := make([]float32, len(nodes)*c.emb.Dim())
		copy(slab, h.Data()[:len(slab)])
		tensor.PutArena(ar)
		ch <- result{slab, nil}
	}()
	select {
	case r := <-ch:
		return r.slab, nil, r.err
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// Apply runs the cache invalidation an edge requires once the core's
// graph has absorbed it with outcome res, and returns how many memoized
// embeddings it dropped. A chronological append can still invalidate:
// memos served at timestamps beyond the new edge were computed before
// it and their sampled windows may now be wrong. The engine's watermark
// fast path makes that a single atomic load when no future-time memo
// exists (the steady state).
func (c *Core) Apply(e graph.Edge, res graph.IngestResult) int {
	switch res {
	case graph.IngestAppended:
		return c.eng.InvalidateAppend(e.Src, e.Dst, e.Time)
	case graph.IngestLate:
		return c.eng.InvalidateLateEdge(e.Src, e.Dst, e.Time)
	}
	return 0
}

// CommitSwap installs params the caller parsed and validated
// (tgat.Model.ParseParamsFS) as the given version under the engine's
// swap gate: in-flight passes drain, the model's tensors are
// rewritten, and every version-dependent structure is re-derived
// (core.Engine.FinishSwap).
func (c *Core) CommitSwap(sp *tgat.StagedParams, version uint64) {
	c.eng.SwapParams(func() { c.model.ApplyParams(sp, version) })
}

// SaveSnapshot writes the engine's memo caches to path through the
// atomic checkpoint writer.
func (c *Core) SaveSnapshot(path string) error { return c.eng.SaveCaches(path) }

// WarmStart loads a snapshot SaveSnapshot wrote, all-or-nothing, and
// reports how many cores it warmed (one, or none with the error).
func (c *Core) WarmStart(path string) (int, error) {
	if err := c.eng.LoadCaches(path); err != nil {
		return 0, err
	}
	return 1, nil
}

// MergeLayerCacheStats sums per-layer cache counters across the cores
// of one server. They run the same cached-layer layout and each engine
// reports in layer order, so section i of one adds to section i of the
// next.
func MergeLayerCacheStats(engs []*core.Engine) []core.LayerCacheStats {
	var out []core.LayerCacheStats
	for _, eng := range engs {
		for i, ls := range eng.LayerCacheStats() {
			if i == len(out) {
				out = append(out, ls)
				continue
			}
			out[i].Items += ls.Items
			out[i].Bytes += ls.Bytes
			out[i].IndexRecords += ls.IndexRecords
			out[i].CacheStats.Add(ls.CacheStats)
		}
	}
	return out
}

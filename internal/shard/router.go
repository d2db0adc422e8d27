package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/stats"
	"tgopt/internal/tgat"
)

// ErrNoShardUp rejects a request, or a snapshot, that finds every
// shard crashed. The serving layer maps it to 503 with a Retry-After
// hint.
var ErrNoShardUp = errors.New("shard: no shard is up")

// Config is the compute plane's part of a serving configuration;
// serve.Config embeds it.
type Config struct {
	// Shards is the number of engines: 1 serves one Core, >= 2 a
	// Router (NewRouter refuses fewer).
	Shards int
	// CacheFile is where the memo caches snapshot: a Core's file, or a
	// Router's directory of per-shard snapshots (shard-N.tgc). Empty:
	// none.
	CacheFile string
	// FS overrides the snapshot file system (default checkpoint.OS);
	// fault tests inject faultfs.FS.
	FS checkpoint.FS
	// WrapEmbedder, when non-nil, wraps each shard's engine before a
	// batcher is attached; the chaos tests inject panics with it.
	WrapEmbedder func(shard int, e core.Embedder) core.Embedder
	// Logf receives serving events (crashes, restarts, snapshot
	// problems). Optional.
	Logf func(format string, args ...any)
}

// WithDefaults fills the optional FS and Logf.
func (c Config) WithDefaults() Config {
	if c.FS == nil {
		c.FS = checkpoint.OS{}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Result is one gathered embed response. Slab is len(nodes)×dim in
// exact input order; rows listed in Degraded could not be computed
// (their slab region is zero) and Partial is set.
type Result struct {
	Slab     []float32
	Degraded []int
	Partial  bool
}

// Router owns the shard pool: it scatters embed calls by ring owner,
// gathers rows back in request order, runs every accepted edge's
// invalidation on each live shard, and supervises crashed shards back
// to life.
type Router struct {
	model *tgat.Model
	dyn   *graph.Dynamic // the server's graph, which every core samples
	opt   core.Options   // per-shard options (cache limits already divided)
	cfg   Config
	dim   int

	ring   *ring
	shards []*Shard

	closed atomic.Bool

	// rebuilds counts supervisor rebuilds in flight and rebuildDone
	// signals the count reaching zero. Not a WaitGroup: WaitRestarts
	// may be waiting at zero while a crash arms the next rebuild, the
	// one interleaving WaitGroup forbids.
	rebuildMu   sync.Mutex
	rebuildDone sync.Cond
	rebuilds    int

	routedAround atomic.Int64
	degradedTgts atomic.Int64
	partials     atomic.Int64

	snapshotSaves  atomic.Int64
	snapshotErrors atomic.Int64
	snapshotLoads  atomic.Int64
}

// NewRouter builds the shard pool over dyn, the server's graph: every
// shard's core samples it, so any shard computes any target bitwise
// alike. The caller ingests each new edge into dyn and then calls Apply.
// opt is the engine option set a single-engine deployment would use:
// the per-shard cache limit is the configured limit divided by the
// shard count, so the pool's total memo footprint matches the
// unsharded engine's.
func NewRouter(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, cfg Config) (*Router, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("shard: need at least 2 shards, got %d", cfg.Shards)
	}
	cfg = cfg.WithDefaults()
	if opt.CacheLimit <= 0 {
		opt.CacheLimit = core.DefaultCacheLimit // divided below
	}
	opt.CacheLimit = max(1, opt.CacheLimit/cfg.Shards)
	r := &Router{
		model: model,
		dyn:   dyn,
		opt:   opt,
		cfg:   cfg,
		dim:   model.Cfg.NodeDim,
		ring:  newRing(cfg.Shards),
	}
	r.rebuildDone.L = &r.rebuildMu
	if cfg.CacheFile != "" {
		if err := cfg.FS.MkdirAll(cfg.CacheFile, 0o755); err != nil {
			return nil, fmt.Errorf("shard: snapshot dir: %w", err)
		}
	}
	for i := 0; i < cfg.Shards; i++ {
		c, err := r.buildCore(i)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s := &Shard{id: i, r: r, core: c, lat: stats.NewHistogram()}
		r.shards = append(r.shards, s)
	}
	return r, nil
}

// buildCore constructs one shard's Core over the router's graph. Engine
// construction panics are converted to errors so a failed rebuild
// cannot take the supervisor down with it.
func (r *Router) buildCore(id int) (c *Core, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			c, err = nil, fmt.Errorf("shard: core build panicked: %v", rec)
		}
	}()
	return newCore(r.model, r.dyn, r.opt, r.cfg, id), nil
}

// Dim returns the embedding width of gathered rows.
func (r *Router) Dim() int { return r.dim }

// Owner returns the primary shard for a node id (exposed for tests and
// introspection).
func (r *Router) Owner(node int32) int { return r.ring.Owner(node) }

// Up counts the shards that are up.
func (r *Router) Up() int {
	n := 0
	for _, s := range r.shards {
		if s.up() {
			n++
		}
	}
	return n
}

// Embed is EmbedRows gathered into a Result.
func (r *Router) Embed(ctx context.Context, nodes []int32, ts []float64) (*Result, error) {
	slab, degraded, err := r.EmbedRows(ctx, nodes, ts)
	if err != nil {
		return nil, err
	}
	return &Result{Slab: slab, Degraded: degraded, Partial: len(degraded) > 0}, nil
}

// EmbedRows scatters (nodes, ts) across the pool by ring owner and
// gathers the rows back in exact input order as one len(nodes)×dim
// slab. Shard failures degrade the affected rows (listed in degraded,
// their slab regions zero) instead of failing the request; only a pool
// with no shard up (ErrNoShardUp) or the caller's own context expiring
// fail the whole call.
func (r *Router) EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error) {
	if len(nodes) != len(ts) {
		return nil, nil, fmt.Errorf("shard: %d nodes vs %d times", len(nodes), len(ts))
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if r.Up() == 0 {
		return nil, nil, fmt.Errorf("%w: all %d crashed", ErrNoShardUp, len(r.shards))
	}
	slab = make([]float32, len(nodes)*r.dim)
	if len(nodes) == 0 {
		return slab, nil, nil
	}

	// Group target indices by owner.
	groups := make([][]int, len(r.shards))
	last := 0
	for i, v := range nodes {
		sid := r.ring.Owner(v)
		groups[sid] = append(groups[sid], i)
		if sid > last {
			last = sid
		}
	}

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	leg := func(sid int, idxs []int) {
		gn := make([]int32, len(idxs))
		gt := make([]float64, len(idxs))
		for j, i := range idxs {
			gn[j], gt[j] = nodes[i], ts[i]
		}
		legCtx, cancel := r.legContext(ctx)
		defer cancel()
		rows, err := r.callWithFailover(legCtx, sid, gn, gt)
		if err != nil {
			r.degradedTgts.Add(int64(len(idxs)))
			mu.Lock()
			degraded = append(degraded, idxs...)
			mu.Unlock()
			return
		}
		d := r.dim
		for j, i := range idxs {
			copy(slab[i*d:(i+1)*d], rows[j*d:(j+1)*d])
		}
	}
	// The last non-empty leg runs on the caller's goroutine: it would
	// only wait for it anyway, and Shard.call runs the pass behind it
	// on a goroutine of its own, so the leg stays cancelable; the
	// batcher turns a panic into an error.
	for sid, idxs := range groups[:last] {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(sid, idxs)
		}()
	}
	leg(last, groups[last])
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller's own deadline/cancel expired; partials would be
		// misleading (legs were cut short, not shards unhealthy).
		return nil, nil, err
	}
	if len(degraded) > 0 {
		sort.Ints(degraded)
		r.partials.Add(1)
	}
	return slab, degraded, nil
}

// legContext budgets one scatter leg at 90% of the caller's remaining
// deadline, reserving headroom to gather and respond (and to classify
// a slow shard as degraded rather than blowing the whole request).
func (r *Router) legContext(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	rem := time.Until(dl)
	return context.WithDeadline(ctx, time.Now().Add(rem*9/10))
}

// callWithFailover runs one group on its owner if the owner is up, else
// on the next up shard, and fails a failed leg over once to the next up
// shard. Any shard can serve any group because every core samples the
// same graph.
func (r *Router) callWithFailover(ctx context.Context, owner int, gn []int32, gt []float64) ([]float32, error) {
	if s := r.shards[owner]; s.up() {
		rows, err := s.call(ctx, gn, gt)
		if err == nil || ctx.Err() != nil {
			// Done, or no budget left to retry elsewhere.
			return rows, err
		}
	} else {
		r.routedAround.Add(1)
	}
	if s := r.nextUp(owner); s != nil {
		return s.call(ctx, gn, gt)
	}
	return nil, ErrNoShardUp
}

// nextUp returns the first up shard after owner by shard id, wrapping
// around, or nil.
func (r *Router) nextUp(owner int) *Shard {
	n := len(r.shards)
	for k := 1; k < n; k++ {
		if s := r.shards[(owner+k)%n]; s.up() {
			return s
		}
	}
	return nil
}

// Apply runs, on every live shard, the invalidation an edge requires
// once the router's graph has taken it with outcome res, and returns the
// summed count of memo entries dropped across the pool. Crashed shards
// are skipped: a restart builds its core over the graph as it then is,
// and its snapshot load keeps only rows whose window that graph still
// gives them. A caller that writes beside passes or restarts holds the
// graph's write gate (graph.Dynamic.Gate) across the write and this
// call.
func (r *Router) Apply(e graph.Edge, res graph.IngestResult) (invalidated int) {
	for _, s := range r.shards {
		if s.up() {
			invalidated += s.currentCore().Apply(e, res)
		}
	}
	return invalidated
}

// RouterStats is the pool's health for /v1/stats: per-shard state and
// the router's failover, degradation and snapshot counters.
type RouterStats struct {
	Shards []Status `json:"shards"`
	// Healthy counts the shards that are up.
	Healthy int `json:"healthy"`

	// Hedges is always zero: the router sends no speculative legs. It
	// stays for the benchmark's trace, which still reads it.
	Hedges           int64 `json:"-"`
	RoutedAround     int64 `json:"routed_around"`
	DegradedTargets  int64 `json:"degraded_targets"`
	PartialResponses int64 `json:"partial_responses"`

	SnapshotSaves  int64 `json:"snapshot_saves"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	SnapshotLoads  int64 `json:"snapshot_loads"`
}

// Stats snapshots per-shard and router-level health. It reads no
// engine and no batcher.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Healthy:          r.Up(),
		RoutedAround:     r.routedAround.Load(),
		DegradedTargets:  r.degradedTgts.Load(),
		PartialResponses: r.partials.Load(),
		SnapshotSaves:    r.snapshotSaves.Load(),
		SnapshotErrors:   r.snapshotErrors.Load(),
		SnapshotLoads:    r.snapshotLoads.Load(),
	}
	for _, s := range r.shards {
		st.Shards = append(st.Shards, s.status())
	}
	return st
}

// Engines returns the shards' current engines — the serving layer sums
// cache, memo and stage figures across them.
func (r *Router) Engines() []*core.Engine {
	out := make([]*core.Engine, 0, len(r.shards))
	for _, s := range r.shards {
		out = append(out, s.currentCore().eng)
	}
	return out
}

// Batchers returns the shards' current batchers.
func (r *Router) Batchers() []*batcher.Batcher {
	out := make([]*batcher.Batcher, 0, len(r.shards))
	for _, s := range r.shards {
		out = append(out, s.currentCore().bat)
	}
	return out
}

// LayerCacheStats sums the per-layer cache counters across the pool.
func (r *Router) LayerCacheStats() []core.LayerCacheStats {
	var sum []core.LayerCacheStats
	for _, eng := range r.Engines() {
		sum = AddLayerCacheStats(sum, eng.LayerCacheStats())
	}
	return sum
}

// Close stops the supervisor: no shard restarts after it returns, and
// the restarts already in flight have finished. Safe to call more than
// once.
func (r *Router) Close() {
	r.closed.Store(true)
	r.WaitRestarts()
}

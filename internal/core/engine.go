package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/device"
	"tgopt/internal/graph"
	"tgopt/internal/nn"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Options configure the TGOpt engine. The zero value disables every
// optimization, making the engine an instrumented re-implementation of
// the baseline; OptAll enables everything with the paper's defaults.
// No option trades exactness: every memoized row and time-table row is
// the float32 row the pass computed, so any combination answers bitwise
// what the baseline answers.
type Options struct {
	// EnableDedup turns on the §4.1 deduplication filter.
	EnableDedup bool
	// EnableCache turns on the §4.2 embedding memoization cache.
	EnableCache bool
	// EnableTimePrecompute turns on the §4.3 precomputed time encodings.
	EnableTimePrecompute bool

	// CacheLimit bounds the total cached embeddings (default 2,000,000,
	// the paper's setting); each takes a 4·NodeDim-byte row and a
	// 24-byte slot of its layer's slab (Cache.UsedBytes), allocated as
	// the cache fills. With more than one cached layer the limit
	// is divided across per-layer caches in proportion to expected
	// lookup traffic (SplitCacheLimit).
	CacheLimit int
	// CachePolicy picks the cache eviction policy. The zero value is
	// CacheTinyLFU — sketch-based admission that keeps heavy hitters
	// resident under skewed reuse; CacheFIFO restores the paper's
	// original policy.
	CachePolicy CachePolicy
	// TimeWindow is the precomputed Δt window (default 10,000).
	TimeWindow int

	// Collector receives per-operation timings (Table 3). Optional.
	Collector *stats.Collector
	// HitRate receives per-lookup hit statistics (Figure 7). Optional.
	HitRate *stats.HitRate

	// Device, when non-nil, simulates running on an accelerator: op
	// timings recorded into Collector are converted by the device cost
	// model and cache/table data movements are charged and counted.
	Device *device.Sim
	// CacheOnDevice stores cached embeddings in simulated device memory
	// instead of host memory (the Table 5 comparison). Only meaningful
	// with Device set.
	CacheOnDevice bool
}

// OptAll returns Options with all three optimizations enabled at the
// paper's default settings.
func OptAll() Options {
	return Options{
		EnableDedup:          true,
		EnableCache:          true,
		EnableTimePrecompute: true,
		CacheLimit:           2_000_000,
		TimeWindow:           10_000,
	}
}

func (o Options) withDefaults() Options {
	if o.CacheLimit <= 0 {
		o.CacheLimit = 2_000_000
	}
	if o.TimeWindow <= 0 {
		o.TimeWindow = 10_000
	}
	return o
}

// Engine pipeline stages, the keys of Engine.StageStats. They partition
// Algorithm 1's per-layer work the way a serving deployment needs to
// observe it: neighbor sampling, deduplication (filter + invert), cache
// key computation and lookup, time encoding (zero + delta), the
// attention operator, and the cache store.
const (
	StageSample      = "sample"
	StageDedup       = "dedup"
	StageCacheLookup = "cache_lookup"
	StageTimeEncode  = "time_encode"
	StageAttention   = "attention"
	StageCacheStore  = "cache_store"
)

// Stages lists the engine stages in pipeline order.
var Stages = []string{
	StageSample, StageDedup, StageCacheLookup,
	StageTimeEncode, StageAttention, StageCacheStore,
}

// Engine computes TGAT temporal embeddings with the redundancy-aware
// optimizations of Algorithm 1. It is a drop-in replacement for the
// baseline tgat.Model.Embed: same inputs, bitwise the same outputs.
type Engine struct {
	model   *tgat.Model
	sampler *graph.Sampler
	opt     Options
	// caches[l] is the memoization cache for layer l outputs; only
	// layers 1..L-1 are cached (§4.2.2: on a stream the top layer's
	// output is never re-consumed, so caching it would waste the budget).
	caches []*Cache
	// topMemo memoizes the top layer's rows where that premise fails: an
	// engine over a live graph serves requests, and requests re-ask the
	// same ⟨node, t⟩. Nil on static-sampler engines. memoEpoch is the
	// engine half of its validity stamp (see passFence): every path that
	// repairs or drops memo state bumps it as its last step, so a row
	// computed while such a path ran can never be served after it.
	topMemo   *topMemo
	memoEpoch atomic.Int64
	ttable    *TimeTable
	// packs[l-1] is layer l's weight pack (tgat.Model.PackLayers) and
	// scorePack the affinity head's (tgat.Model.PackScore). Like ttable
	// they are derived from the parameters, so they are built once per
	// params version: in NewEngine and again in FinishSwap.
	packs     []nn.LayerPack
	scorePack nn.MergePack
	// layerTargets[l] indexes layer l's cached keys by target node and
	// layerSupports[l] (l ≥ 2) indexes them by support node — the
	// (node, time) pairs whose layer-(l−1) embeddings the entry
	// aggregated. dyn is the live graph when serving a stream. Together
	// they are the engine's one invalidation index: every cache-enabled
	// engine over a live graph builds them, and they make late inserts,
	// appends and deletions selective, transitively across cached layers
	// (DESIGN.md §15). A static-sampler engine builds none: no edge can
	// arrive. Every index keeps a record until the watermark floor
	// passes it (indexFloor), cached or not: an upper entry may still
	// depend on an evicted value.
	layerTargets  []*TargetIndex
	layerSupports []*SupportIndex
	dyn           *graph.Dynamic
	// keepAll pins indexFloor at −∞ (tests: the no-retirement baseline).
	keepAll bool
	// staleSkips counts memoizations abandoned because the graph's
	// mutation epoch advanced between sampling and store: the sampled
	// neighborhoods may predate a history rewrite, so caching the
	// result could resurrect invalidated state.
	staleSkips atomic.Int64
	// maxEmbedBits holds the float bits of the largest query timestamp
	// ever embedded or loaded from a snapshot — an upper bound on any
	// memo's t' at any layer (neighbor recursion only descends in time). InvalidateAppend
	// consults it so the steady-state append (no future-time memos
	// outstanding) costs one atomic load.
	maxEmbedBits atomic.Uint64
	// swapGate is the parameter hot-swap barrier: every embed and score
	// pass holds the read side for its whole duration, and SwapLock
	// takes the write side, so a swap can never tear a request — no
	// request observes a mix of old- and new-version tensors (DESIGN.md
	// §16). The version served is the model's own (tgat.Model.Version).
	swapGate sync.RWMutex
	// stages holds always-on per-stage latency histograms (one atomic
	// observation per op, so the cost is negligible next to the ops).
	stages map[string]*stats.Histogram
}

// NewEngine creates an engine over a trained model and a most-recent
// sampler. Using a Uniform sampler with EnableCache panics: memoization
// is only sound when re-sampling a target reproduces the same temporal
// subgraph (§3.2, §7). The engine packs the model's layer weights here,
// so their values may change afterwards only through SwapParams (or
// SwapLock, ApplyParams and FinishSwap).
func NewEngine(m *tgat.Model, s *graph.Sampler, opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{model: m, sampler: s, opt: opt}
	e.stages = make(map[string]*stats.Histogram, len(Stages))
	for _, st := range Stages {
		e.stages[st] = stats.NewHistogram()
	}
	if s.K() != m.Cfg.NumNeighbors {
		panic("core: sampler k differs from model NumNeighbors")
	}
	e.maxEmbedBits.Store(math.Float64bits(math.Inf(-1)))
	e.packs, e.scorePack = m.PackLayers(), m.PackScore()
	if opt.EnableCache {
		if s.Strategy() != graph.MostRecent {
			panic("core: the memoization cache requires most-recent sampling (§3.2)")
		}
		top := m.Cfg.Layers - 1
		if m.Cfg.Layers == 1 {
			top = 1 // single-layer models cache their only layer
		}
		per := SplitCacheLimit(opt.CacheLimit, m.Cfg.NumNeighbors, top)
		e.caches = make([]*Cache, m.Cfg.Layers+1)
		for l := 1; l <= top; l++ {
			e.caches[l] = NewCacheWith(CacheConfig{
				Limit:  per[l],
				Dim:    m.Cfg.NodeDim,
				Policy: opt.CachePolicy,
			})
		}
	}
	e.dyn = s.Dynamic()
	e.memoEpoch.Store(1) // zeroed memo slots carry epoch 0 and never match
	if e.dyn != nil && e.caches != nil && e.caches[m.Cfg.Layers] == nil {
		e.topMemo = newTopMemo(m.Cfg.NodeDim)
	}
	if e.caches != nil && e.dyn != nil {
		e.layerTargets = make([]*TargetIndex, len(e.caches))
		e.layerSupports = make([]*SupportIndex, len(e.caches))
		for l, c := range e.caches {
			if c == nil {
				continue
			}
			e.layerTargets[l] = NewTargetIndex()
			if l >= 2 { // deep layers also track supports
				e.layerSupports[l] = NewSupportIndex()
			}
		}
	}
	if opt.EnableTimePrecompute {
		e.ttable = NewTimeTable(m.Time, opt.TimeWindow)
		// Table residency: on a device run the table ships to device
		// memory once, charged here.
		if opt.Device != nil {
			d := opt.Device.TransferTime(device.HtoD, e.ttable.Bytes(), 1)
			opt.Collector.Add(stats.OpTransfer, d)
		}
	}
	return e
}

// Options returns the engine's (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// Model returns the underlying TGAT model.
func (e *Engine) Model() *tgat.Model { return e.model }

// ScoreWith computes link-prediction logits with the model's affinity
// head, over the engine's pack of it, while holding the swap barrier's
// read side: a concurrent parameter hot-swap waits the pass out rather
// than tearing its tensors.
func (e *Engine) ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	return e.model.ScorePacked(ar, &e.scorePack, hSrc, hDst)
}

// ParamsVersion returns the model version the engine currently serves:
// the shared model's label, for reporting. Nothing checks it for
// validity: tgat.Model.LoadParams keeps the label, so two different
// parameter sets can carry the same one. A cache snapshot carries the
// digest of the parameters themselves (LoadCachesFS).
func (e *Engine) ParamsVersion() uint64 { return e.model.Version() }

// SwapLock acquires the hot-swap barrier's write side: every in-flight
// embed/score pass drains first and new passes block until SwapUnlock.
// While held, the caller may rewrite the shared model's parameters
// (tgat.ApplyParams) and must then call FinishSwap on every engine
// sharing them before unlocking.
func (e *Engine) SwapLock() { e.swapGate.Lock() }

// SwapUnlock releases the hot-swap barrier.
func (e *Engine) SwapUnlock() { e.swapGate.Unlock() }

// FinishSwap completes a parameter swap on this engine while SwapLock
// is held and the shared model already carries the new parameters and
// their version: the time table and the layers' and score head's weight
// packs are rebuilt from the swapped parameters, every memo-cache layer is
// cleared, and the target/support indexes reset with them.
// Memoized embeddings are only valid for the parameters that computed
// them, so a swap is the cache-wide invalidation event.
func (e *Engine) FinishSwap() {
	if e.ttable != nil {
		e.ttable = NewTimeTable(e.model.Time, e.opt.TimeWindow)
	}
	e.packs, e.scorePack = e.model.PackLayers(), e.model.PackScore()
	e.clearCaches()
	e.memoEpoch.Add(1)
}

// SwapParams atomically swaps this engine to new parameters: apply
// mutates the shared model's tensors and version (typically
// tgat.ApplyParams) under the barrier, then FinishSwap invalidates
// every version-dependent derived structure. Single-engine
// deployments use this directly; a shard pool coordinates the same
// three steps across engines itself (shard.Router.CommitSwap), since
// all its engines share one model.
func (e *Engine) SwapParams(apply func()) {
	e.SwapLock()
	defer e.SwapUnlock()
	apply()
	e.FinishSwap()
}

// CacheFor returns the memoization cache serving layer l, or nil.
func (e *Engine) CacheFor(l int) *Cache {
	if e.caches == nil || l < 1 || l >= len(e.caches) {
		return nil
	}
	return e.caches[l]
}

// CacheLen returns the total number of cached embeddings across layers.
func (e *Engine) CacheLen() int {
	total := 0
	for _, c := range e.caches {
		if c != nil {
			total += c.Len()
		}
	}
	return total
}

// CacheBytes returns the estimated resident footprint of all caches.
func (e *Engine) CacheBytes() int64 {
	var total int64
	for _, c := range e.caches {
		if c != nil {
			total += c.UsedBytes()
		}
	}
	return total
}

// StageStats returns the engine's live per-stage latency histograms,
// keyed by the Stage* constants. The histograms are updated on every
// Embed (at every recursion layer) and are safe for concurrent reads;
// callers must treat the map itself as read-only.
func (e *Engine) StageStats() map[string]*stats.Histogram { return e.stages }

// TimeTable returns the precomputed encoding table, or nil.
func (e *Engine) TimeTable() *TimeTable { return e.ttable }

// InvalidateNode makes the memo cache exact again after node v's
// feature row was written (the §7 node-feature-change event): it clears
// every cached layer and returns the number of entries dropped. A
// feature row is read at every time, below the watermark too, where the
// index has retired its records, so no index can say which rows read it.
func (e *Engine) InvalidateNode(v int32) int {
	defer e.memoEpoch.Add(1)
	return e.clearCaches()
}

// InvalidateEdge makes the memo cache exact again after the interaction
// (u, v, t) was deleted from the live graph (graph.Dynamic.DeleteEdge,
// the §7 edge-deletion event). A deletion moves most-recent-k windows
// exactly as a late insert at t does — CountBetween counts only edges
// strictly between t and t', so the edge at t is excluded either way —
// so it runs InvalidateLateEdge's rule, transitive rules included, and
// every entry whose window never held the edge stays (reuse maximized,
// §7). The exception is an edge below ⌊watermark⌋: records in
// (t, ⌊watermark⌋) may already be retired, so that deletion clears every
// layer. Returns the number of entries removed.
func (e *Engine) InvalidateEdge(u, v int32, t float64) int {
	defer e.memoEpoch.Add(1)
	if e.caches == nil {
		return 0
	}
	if e.dyn != nil && t < math.Floor(e.dyn.Watermark()) {
		return e.clearCaches()
	}
	return e.invalidateNewer(u, v, t)
}

// InvalidateLateEdge makes the memo cache exact again after an
// out-of-order edge (u, v, t) was sorted-inserted into the live graph
// (graph.Dynamic.InsertLate): it drops every memoized embedding
// ⟨w, t'⟩ with t' > t whose sampled neighborhood could now include the
// new edge. At layer 1 only targets u and v qualify — the edge enters
// no other node's adjacency — and a candidate is kept (reuse
// maximized, §7) when k or more of the target's interactions already
// lie strictly between t and t': the most-recent-k window is then full
// of newer edges and the insert cannot surface in it. Deeper cached
// layers propagate the same refinement transitively through their
// recorded support sets instead of clearing whole (DESIGN.md §15).
// Returns the number of entries removed.
//
// A static-sampler engine has no index to consult, so there the only
// sound response is dropping every cache.
func (e *Engine) InvalidateLateEdge(u, v int32, t float64) int {
	defer e.memoEpoch.Add(1)
	if e.caches == nil {
		return 0
	}
	return e.invalidateNewer(u, v, t)
}

// InvalidateAppend makes the memo cache exact again after a
// chronological append of edge (u, v, t): any memoized embedding
// ⟨w, t'⟩ with t' strictly in the future (t' > t) was computed before
// the append and its most-recent-k window may now be wrong — the exact
// same displacement condition as a late insert, so the same selective
// scan applies. Unlike InsertLate, appends are the steady-state
// serving event, so the scan is gated on a monotonic bound over every
// embedded query timestamp: when no future-time memo can exist (the
// common case — queries at t' ≤ now), the call costs one atomic load.
func (e *Engine) InvalidateAppend(u, v int32, t float64) int {
	defer e.memoEpoch.Add(1)
	if e.caches == nil {
		return 0
	}
	if math.Float64frombits(e.maxEmbedBits.Load()) <= t {
		return 0
	}
	return e.invalidateNewer(u, v, t)
}

// invalidateNewer is the shared selective-invalidation body behind
// InvalidateLateEdge, InvalidateAppend and InvalidateEdge. Layers are
// processed bottom up; a layer-l entry is dropped when (i) its own
// most-recent-k window is displaced by the written edge (found through
// layerTargets), or (ii) one of its recorded support values
// ⟨s, t_s⟩ with s ∈ {u, v} had its window displaced (the same
// CountBetween refinement one hop down), or (iii) one of its supports
// is itself a layer-(l−1) entry dropped in the previous pass. Rule
// (ii) makes the propagation exact for L = 3 — layer-1 values depend
// only on their own window and layer-0 features, whose writes clear
// every layer (InvalidateNode) — and rule
// (iii) carries deeper models, relying on support records outliving
// the eviction of their entries (see SupportIndex).
func (e *Engine) invalidateNewer(u, v int32, t float64) int {
	// A shed record means some entry's dependencies are unknown: that
	// layer and every layer above it clear this one time (their indexes
	// reset with them, so tracking restarts clean). A static-sampler
	// engine has no index, so every layer clears.
	clearFrom, floor := 1, 0.0
	if e.layerTargets != nil {
		clearFrom, floor = e.shedFrom(), e.indexFloor(t)
	}
	k := e.model.Cfg.NumNeighbors
	endpoints := [2]int32{u, v}
	n := 2
	if u == v {
		n = 1 // self-loop: one scan suffices
	}
	// The write displaces the window of a value ⟨w, at⟩ only if fewer
	// than k interactions separate it from the query time (CountBetween
	// runs after the write and excludes the edge at time t either way).
	displacesWindow := func(w int32) func(uint64, float64) bool {
		return func(_ uint64, at float64) bool {
			return e.dyn.CountBetween(w, t, at) < k
		}
	}
	removed := 0
	var displaced []uint64 // layer-(l−1) keys dropped in the previous pass
	for l := 1; l < len(e.caches); l++ {
		c := e.caches[l]
		if c == nil {
			continue
		}
		if l >= clearFrom {
			removed += e.clearLayer(l)
			continue
		}
		var drop []uint64
		tix := e.layerTargets[l]
		for _, w := range endpoints[:n] {
			drop = append(drop, tix.CollectNewer(w, t, floor, displacesWindow(w))...)
		}
		if six := e.layerSupports[l]; six != nil {
			for _, w := range endpoints[:n] {
				drop = append(drop, six.CollectWindow(w, t, floor, displacesWindow(w))...)
			}
			for _, lower := range displaced {
				drop = append(drop, six.CollectUpper(lower, floor)...)
			}
		}
		removed += c.Remove(drop)
		// Propagate every displaced value, cached or not: an upper
		// entry may have consumed it before it aged out of this cache.
		displaced = drop
	}
	return removed
}

// shedFrom returns the lowest cached layer whose target or support
// index shed a record since its last reset, or len(e.caches) if none.
func (e *Engine) shedFrom() int {
	for l := 1; l < len(e.caches); l++ {
		if tix, six := e.TargetsFor(l), e.SupportsFor(l); (tix != nil && tix.Shed()) || (six != nil && six.Shed()) {
			return l
		}
	}
	return len(e.caches)
}

// indexFloor is the retirement floor of the invalidation indexes, read
// once per store batch (t = +Inf) and once per invalidation of an edge
// at t: ⌊watermark⌋, the integer floor keeping CollectUpper's truncated
// Key match sound. Every edge the graph accepts carries a time at or
// above the watermark, which never moves back (graph.Dynamic.SetLateness),
// and collection needs a record time above the edge's, so no write can
// reach a record below the floor. That takes each edge's invalidation
// to run before the graph accepts the next edge, as /v1/ingest and
// shard.Router.Apply do. An invalidation for an edge below the watermark
// gets the lower floor ⌊t⌋.
func (e *Engine) indexFloor(t float64) float64 {
	if e.keepAll {
		return math.Inf(-1)
	}
	if w := e.dyn.Watermark(); w < t {
		t = w
	}
	return math.Floor(t)
}

// StaleStoreSkips returns how many batch memoizations were abandoned
// (or rolled back) because a history rewrite raced the computation.
func (e *Engine) StaleStoreSkips() int64 { return e.staleSkips.Load() }

// TargetsFor returns layer l's per-node key index, or nil.
func (e *Engine) TargetsFor(l int) *TargetIndex {
	if e.layerTargets == nil || l < 1 || l >= len(e.layerTargets) {
		return nil
	}
	return e.layerTargets[l]
}

// SupportsFor returns layer l's support index (l ≥ 2 on deep models
// over a live graph), or nil.
func (e *Engine) SupportsFor(l int) *SupportIndex {
	if e.layerSupports == nil || l < 1 || l >= len(e.layerSupports) {
		return nil
	}
	return e.layerSupports[l]
}

// clearCaches empties every cached layer and resets its indexes,
// returning the number of entries dropped.
func (e *Engine) clearCaches() int {
	n := 0
	for l, c := range e.caches {
		if c != nil {
			n += e.clearLayer(l)
		}
	}
	return n
}

// clearLayer empties layer l's cache and resets its indexes, returning
// the number of entries dropped.
func (e *Engine) clearLayer(l int) int {
	n := e.caches[l].Len()
	e.caches[l].Clear()
	if tix := e.TargetsFor(l); tix != nil {
		tix.Reset()
	}
	if six := e.SupportsFor(l); six != nil {
		six.Reset()
	}
	return n
}

// passFence is what one level of an embed pass holds against the live
// graph moving under it, read once where the level starts computing —
// before the memo lookup, before it samples. What the level computes is
// kept only if the fence still holds afterwards, by the rule of the
// store that keeps it: moved for the top-layer memo, staleFor for a
// layer cache. A static-graph engine's fence always holds.
type passFence struct {
	e             *Engine
	muts, appends int64   // dyn.Mutations(), dyn.Appends()
	wm            float64 // dyn.MaxTime(); read only for staleFor (it takes the graph lock)
	epoch         int64   // e.memoEpoch
}

func (e *Engine) openFence(withClock bool) passFence {
	f := passFence{e: e}
	if e.dyn != nil {
		f.muts, f.appends, f.epoch = e.dyn.Mutations(), e.dyn.Appends(), e.memoEpoch.Load()
		if withClock {
			f.wm = e.dyn.MaxTime()
		}
	}
	return f
}

// stamp is the fence as a memo row's validity stamp.
func (f passFence) stamp() memoStamp { return memoStamp{g: f.muts + f.appends, e: f.epoch} }

// moved is the memo's rule: anything changed. The counters only grow, so
// reads that agree with the fence bracket an interval in which none moved.
func (f passFence) moved() bool {
	return f.e.openFence(false).stamp() != f.stamp()
}

// staleFor is the cache's rule for a level that embedded the
// timestamps ts: a history rewrite landed (the sampled neighborhoods may
// predate it, and storing them would resurrect just-invalidated state),
// or an append landed while a row lies beyond the opening watermark — a
// row at a *future* timestamp may have sampled a window the append lands
// in, and InvalidateAppend's scan can run before the row is indexed. The
// append sequence, not MaxTime, detects the append (one at exactly the
// stream clock leaves MaxTime unchanged). Any append after the fence
// opened carries a time >= wm, so rows at t' > wm cover its every window.
func (f passFence) staleFor(ts []float64) bool {
	dyn := f.e.dyn
	if dyn == nil {
		return false
	}
	if dyn.Mutations() != f.muts {
		return true
	}
	if dyn.Appends() == f.appends {
		return false
	}
	for _, t := range ts {
		if t > f.wm {
			return true
		}
	}
	return false
}

// CacheStats aggregates the per-layer cache counters (hit/miss and
// admission; see CacheStats). Zero when the cache is disabled.
func (e *Engine) CacheStats() CacheStats {
	var agg CacheStats
	for _, c := range e.caches {
		if c != nil {
			agg.Add(c.Stats())
		}
	}
	return agg
}

// LayerCacheStats is one cached layer's slice of the cache counters,
// plus its resident footprint — the per-layer breakdown behind the
// serving plane's cache_layers stats section and the
// tgopt_cache_layer_* metrics.
type LayerCacheStats struct {
	Layer int   `json:"layer"`
	Items int   `json:"items"`
	Bytes int64 `json:"bytes"`
	// IndexRecords counts the layer's live target and support records.
	IndexRecords int `json:"index_records"`
	CacheStats
}

// LayerCacheStats returns the per-layer cache counters in layer order.
// Nil when the cache is disabled.
func (e *Engine) LayerCacheStats() []LayerCacheStats {
	var out []LayerCacheStats
	for l, c := range e.caches {
		if c == nil {
			continue
		}
		ls := LayerCacheStats{Layer: l, Items: c.Len(), Bytes: c.UsedBytes(), CacheStats: c.Stats()}
		if tix := e.TargetsFor(l); tix != nil {
			ls.IndexRecords = tix.Len()
		}
		if six := e.SupportsFor(l); six != nil {
			ls.IndexRecords += six.Len()
		}
		out = append(out, ls)
	}
	return out
}

// EmbedFunc adapts the engine to the inference driver's signature.
func (e *Engine) EmbedFunc() tgat.EmbedFunc { return e.Embed }

// EmbedArenaFunc adapts the engine to the arena-aware driver signature
// — the zero-allocation steady-state path.
func (e *Engine) EmbedArenaFunc() tgat.EmbedArenaFunc { return e.EmbedWith }

// Embed computes top-layer temporal embeddings for the given targets —
// the paper's Algorithm 1. The result is an ordinary heap tensor owned
// by the caller; hot loops should prefer EmbedWith, which skips the
// final defensive copy.
func (e *Engine) Embed(nodes []int32, ts []float64) *tensor.Tensor {
	ar := tensor.GetArena()
	h := e.EmbedWith(ar, nodes, ts).Clone()
	tensor.PutArena(ar)
	return h
}

// EmbedWith is Embed with every intermediate and the result drawn from
// ar (heap when ar is nil): the returned tensor is invalidated by
// ar.Reset. After a warmup batch has grown the arena's slots, a
// steady-state batch of the same shape performs zero heap allocations
// end to end (see DESIGN.md §9). Concurrent callers need distinct
// arenas; the engine itself stays safe for concurrent use.
func (e *Engine) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if len(nodes) != len(ts) {
		panic("core: Embed nodes/ts length mismatch")
	}
	// The whole pass runs under the swap barrier's read side: a
	// parameter hot-swap (SwapLock) drains in-flight passes and blocks
	// new ones, so no pass ever mixes tensors from two versions or
	// stores a memo under the wrong version stamp.
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	if e.caches != nil {
		e.noteEmbedTimes(ts)
	}
	h := e.embed(ar, e.model.Cfg.Layers, nodes, ts)
	if h.Idx == nil {
		return h.Data
	}
	// §4.1 — restore the caller's batch (line 20). Below the top the
	// layer pass reads the unique rows through the inverse index instead.
	start := time.Now()
	out := DedupInvertWith(ar, h.Data, h.Idx)
	e.observe(stats.OpDedupInvert, StageDedup, device.HostOp, 0, start)
	return out
}

// noteEmbedTimes advances the monotonic bound on embedded query
// timestamps (see InvalidateAppend). One scan and at most a few CAS
// attempts per batch.
func (e *Engine) noteEmbedTimes(ts []float64) {
	mx := math.Inf(-1)
	for _, t := range ts {
		if t > mx {
			mx = t
		}
	}
	for {
		old := e.maxEmbedBits.Load()
		if math.Float64frombits(old) >= mx {
			return
		}
		if e.maxEmbedBits.CompareAndSwap(old, math.Float64bits(mx)) {
			return
		}
	}
}

// observe records an operation that started at `start`: wall time into
// the stage's latency histogram (stage "" skips that; the histograms
// stay on even without a Collector so a serving deployment always has
// per-stage visibility), and the device-model-converted duration into
// the Collector. It replaces a closure-returning predecessor (timeOp)
// whose per-call closure was measurable garbage on the embed hot path.
func (e *Engine) observe(op, stage string, kind device.OpKind, launches int, start time.Time) {
	h := e.stages[stage]
	if h == nil && e.opt.Collector == nil && e.opt.Device == nil {
		return
	}
	wall := time.Since(start)
	h.Observe(wall)
	if e.opt.Collector != nil || e.opt.Device != nil {
		e.opt.Collector.Add(op, e.opt.Device.OpTime(kind, wall, launches))
	}
}

// chargeTransfer charges a simulated data movement against op.
func (e *Engine) chargeTransfer(op string, dir device.Direction, bytes int64, calls int) {
	if e.opt.Device == nil || bytes == 0 {
		return
	}
	e.opt.Collector.Add(op, e.opt.Device.TransferTime(dir, bytes, calls))
}

// embed returns the layer-l embeddings of the targets as rows read in
// place: at layer 0 the node feature table indexed by node id, above it
// the level's unique rows indexed by §4.1's inverse index (dense when
// dedup is off). The caller's layer pass reads them there; nothing is
// gathered or re-expanded between levels.
func (e *Engine) embed(ar *tensor.Arena, l int, nodes []int32, ts []float64) nn.Rows {
	cfg := e.model.Cfg
	d := cfg.NodeDim
	if l == 0 {
		start := time.Now()
		h := featureRows(ar, e.model.NodeFeat, nodes)
		e.observe(stats.OpFeatLookup, "", device.HostOp, 0, start)
		// Device run: the rows the layer reads still cross to the device.
		e.chargeTransfer(stats.OpFeatLookup, device.HtoD, int64(len(nodes)*d*4), 1)
		return h
	}

	// §4.1 — deduplicate targets. Applied for l > 0 only, as in the
	// paper: layer 0 is a pure gather, so deduplicating it buys nothing.
	var inv []int32
	if e.opt.EnableDedup {
		start := time.Now()
		res := DedupFilterWith(ar, nodes, ts)
		e.observe(stats.OpDedupFilter, StageDedup, device.HostOp, 0, start)
		nodes, ts, inv = res.Nodes, res.Times, res.InvIdx
	}

	n := len(nodes)
	// Miss rows are either filled below or never read (nhits == 0 hands
	// the miss tensor back directly), so uninitialized scratch is safe.
	h := ar.Tensor(n, d)

	// §4.2 — look up memoized embeddings. A target whose time lies
	// outside Key's domain is a miss that is never looked up, stored or
	// indexed: its key may be another time's (inexact is non-nil then).
	cache := e.CacheFor(l)
	var keys []uint64
	var hitMask []bool
	var inexact []float64
	nhits := 0
	if cache != nil {
		start := time.Now()
		keys = ar.Uint64s(n)
		if !ComputeKeysInto(keys, nodes, ts) {
			inexact = ts
		}
		e.observe(stats.OpComputeKeys, StageCacheLookup, device.HostOp, 0, start)
		start = time.Now()
		hitMask = ar.Bools(n)
		nhits = cache.lookupExact(keys, inexact, h, hitMask)
		e.observe(stats.OpCacheLookup, StageCacheLookup, device.HostOp, 0, start)
		if e.opt.CacheOnDevice {
			// Device-resident cache: every hit is a small on-device copy.
			e.chargeTransfer(stats.OpCacheLookup, device.DtoD, int64(nhits*d*4), nhits)
		} else {
			// Host-resident cache: assemble on host, ship once (§4.2.2).
			e.chargeTransfer(stats.OpCacheLookup, device.HtoD, int64(n*d*4), 1)
		}
		e.opt.HitRate.Record(nhits, n)
		e.opt.Collector.Count("cache_hits", int64(nhits))
		e.opt.Collector.Count("cache_lookups", int64(n))
	}

	// What this level may keep is computed from here on (wm: cache misses only).
	fence := e.openFence(cache != nil && nhits < n)

	// Top layer on a live graph: answer re-asked targets from the memo.
	// A row hits only if it was stored under exactly this level's fence
	// stamp, and the rows computed below are stored only if the fence has
	// not moved afterwards — so an all-hit pass samples, looks up, encodes
	// and attends nothing.
	var memo *topMemo
	if l == cfg.Layers && e.topMemo != nil {
		memo = e.topMemo
		hitMask = ar.Bools(n)
		nhits = memo.lookup(fence.stamp(), nodes, ts, h, hitMask)
	}

	if nhits < n {
		// Shrink to the misses (line 10 of Algorithm 1).
		missNodes, missTs := nodes, ts
		var missPos []int32
		var missKeys []uint64
		if nhits > 0 {
			nm := n - nhits
			missNodes = ar.Int32s(nm)
			missTs = ar.Float64s(nm)
			missPos = ar.Int32s(nm)
			if keys != nil {
				missKeys = ar.Uint64s(nm)
			}
			w := 0
			for i := 0; i < n; i++ {
				if hitMask[i] {
					continue
				}
				missNodes[w] = nodes[i]
				missTs[w] = ts[i]
				missPos[w] = int32(i)
				if keys != nil {
					missKeys[w] = keys[i]
				}
				w++
			}
		} else if keys != nil {
			missKeys = keys
		}
		if inexact != nil {
			inexact = missTs // the store below sees the misses only
		}
		nm := len(missNodes)
		k := cfg.NumNeighbors

		start := time.Now()
		b := graph.Batch{
			K:     k,
			Nghs:  ar.Int32s(nm * k),
			EIdxs: ar.Int32s(nm * k),
			Times: ar.Float64s(nm * k),
			Valid: ar.Bools(nm * k),
		}
		e.sampler.SampleTo(&b, missNodes, missTs)
		e.observe(stats.OpNghLookup, StageSample, device.HostOp, 0, start)

		// Recurse over targets ∪ neighbors (line 12).
		allNodes := ar.Int32s(nm + nm*k)
		allTs := ar.Float64s(nm + nm*k)
		copy(allNodes, missNodes)
		copy(allTs, missTs)
		copy(allNodes[nm:], b.Nghs)
		copy(allTs[nm:], b.Times)
		hAll := e.embed(ar, l-1, allNodes, allTs)
		hTgt, hNgh := hAll.Slice(ar, 0, nm), hAll.Slice(ar, nm, nm+nm*k)

		tEnc0 := e.encodeZeros(ar, nm)
		tEncD := e.encodeDeltas(ar, missTs, &b, nm, k)

		start = time.Now()
		eFeat := featureRows(ar, e.model.EdgeFeat, b.EIdxs)
		e.observe(stats.OpFeatLookup, "", device.HostOp, 0, start)
		e.chargeTransfer(stats.OpFeatLookup, device.HtoD, int64(nm*k*cfg.EdgeDim*4), 1)

		start = time.Now()
		hm := e.model.LayerForwardPacked(ar, l, &e.packs[l-1], hTgt, hNgh, eFeat, tEnc0, tEncD, b.Valid)
		e.observe(stats.OpAttention, StageAttention, device.TensorOp, 8, start)
		e.opt.Collector.Count("attention_rows", int64(nm))

		if cache != nil && fence.staleFor(missTs) {
			// The graph moved under this batch (passFence.staleFor).
			// Recompute-next-time is cheap, a stale memo would be
			// permanent, so skip memoizing the whole batch.
			e.staleSkips.Add(1)
		} else if cache != nil {
			start = time.Now()
			// A layer-1 row is tagged with the window it read, so a
			// snapshot load can re-sample and keep it only if unchanged.
			var tags []uint64
			if l == 1 {
				tags = ar.Uint64s(nm)
				for i := range tags {
					tags[i] = windowTag(&b, i)
				}
			}
			cache.storeExact(missKeys, inexact, tags, hm)
			e.observe(stats.OpCacheStore, StageCacheStore, device.HostOp, 0, start)
			if tix := e.TargetsFor(l); tix != nil {
				// Index per-target, and — for deep layers — per
				// support: the (node, time) pairs whose layer-(l−1)
				// embeddings this entry aggregated, read straight off
				// the sampled batch (padding slots carry node 0).
				// Recording only runs on the miss path, so the all-hit
				// steady state stays allocation-free.
				floor := e.indexFloor(math.Inf(1))
				for i := 0; i < nm; i++ {
					if inexact == nil || inKeyDomain(missTs[i]) {
						tix.Record(missNodes[i], missKeys[i], missTs[i], floor)
					}
				}
				if six := e.layerSupports[l]; six != nil {
					for i := 0; i < nm; i++ {
						base := i * k
						for j := 0; j < k; j++ {
							six.Record(b.Nghs[base+j], missKeys[i], b.Times[base+j], floor)
						}
					}
				}
			}
			if fence.staleFor(missTs) {
				// The graph moved during the store itself, and its
				// invalidation scan may have run before our entries
				// were indexed, so roll the whole batch back: once they
				// are stored and indexed with the fence still holding,
				// any later rewrite is guaranteed to see them. Until then
				// they could be hit, so the rollback moves the epoch too.
				cache.Remove(missKeys)
				e.memoEpoch.Add(1)
				e.staleSkips.Add(1)
			}
			if e.opt.CacheOnDevice {
				e.chargeTransfer(stats.OpCacheStore, device.DtoD, int64(nm*d*4), nm)
			} else {
				e.chargeTransfer(stats.OpCacheStore, device.DtoH, int64(nm*d*4), 1)
			}
		}

		if memo != nil {
			if !fence.moved() {
				memo.store(fence.stamp(), missNodes, missTs, hm)
			} else {
				// A write landed while the pass ran: the rows may predate
				// it, and the stamp they were computed under is gone.
				memo.staleSkips.Add(int64(nm))
			}
		}

		// Copy miss results into the output (line 18).
		if missPos == nil {
			h = hm
		} else {
			dst := h.Data()
			src := hm.Data()
			for j, p := range missPos {
				copy(dst[int(p)*d:(int(p)+1)*d], src[j*d:(j+1)*d])
			}
		}
	}

	return nn.Rows{Data: h, Idx: inv}
}

// encodeZeros produces Φ(0) rows for n targets, from the precomputed
// table when enabled (§3.3: the zero encoding never changes at
// inference time).
func (e *Engine) encodeZeros(ar *tensor.Arena, n int) *tensor.Tensor {
	d := e.model.Cfg.TimeDim
	out := ar.Tensor(n, d)
	if e.ttable != nil {
		start := time.Now()
		e.ttable.EncodeZerosInto(n, out)
		e.observe(stats.OpTimeEncZero, StageTimeEncode, device.HostOp, 0, start)
		// Device run: the Φ(0) row is already resident; replicating it is
		// an on-device broadcast.
		e.chargeTransfer(stats.OpTimeEncZero, device.DtoD, int64(n*d*4), 1)
		return out
	}
	start := time.Now()
	zeros := ar.Float64s(n)
	clear(zeros) // arena scratch is dirty; the encoder reads it
	e.model.Time.EncodeInto(zeros, out)
	e.observe(stats.OpTimeEncZero, StageTimeEncode, device.TensorOp, 2, start)
	// Baseline on device: materialize the zero-delta tensor host-side
	// and ship it, then encode (the intermediate-tensor cost the paper
	// measures for TimeEncode(0) on GPU).
	e.chargeTransfer(stats.OpTimeEncZero, device.HtoD, int64(n*8+n*d*4), 2)
	return out
}

// encodeDeltas produces Φ(t − t_j) for every neighbor slot.
func (e *Engine) encodeDeltas(ar *tensor.Arena, ts []float64, b *graph.Batch, n, k int) *tensor.Tensor {
	d := e.model.Cfg.TimeDim
	deltas := ar.Float64s(n * k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			deltas[i*k+j] = ts[i] - b.Times[i*k+j]
		}
	}
	out := ar.Tensor(n*k, d)
	if e.ttable != nil {
		start := time.Now()
		hits := e.ttable.EncodeIntoWith(ar, deltas, out)
		e.observe(stats.OpTimeEncDelta, StageTimeEncode, device.HostOp, 0, start)
		e.opt.Collector.Count("ttable_hits", int64(hits))
		e.opt.Collector.Count("ttable_lookups", int64(len(deltas)))
		// Table rows are gathered host-side and shipped to the device —
		// the per-batch overhead behind the paper's observed GPU
		// regression for this optimization.
		e.chargeTransfer(stats.OpTimeEncDelta, device.HtoD, int64(n*k*d*4), 1)
		return out
	}
	start := time.Now()
	e.model.Time.EncodeInto(deltas, out)
	e.observe(stats.OpTimeEncDelta, StageTimeEncode, device.TensorOp, 2, start)
	e.chargeTransfer(stats.OpTimeEncDelta, device.HtoD, int64(n*k*8), 1)
	return out
}

// featureRows returns the rows of a feature table that ids read, in
// place: the table itself, indexed by each id's tgat.FeatureRow.
func featureRows(ar *tensor.Arena, table *tensor.Tensor, ids []int32) nn.Rows {
	idx := ar.Int32s(len(ids))
	rows := table.Dim(0)
	for i, id := range ids {
		idx[i] = tgat.FeatureRow(id, rows)
	}
	return nn.Rows{Data: table, Idx: idx}
}

package core

import (
	"math"
	"sync/atomic"
	"time"

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
	EnableDedup bool `json:"dedup"`
	// EnableCache turns on the §4.2 embedding memoization cache.
	EnableCache bool `json:"cache"`
	// EnableTimePrecompute turns on the §4.3 precomputed time encodings.
	EnableTimePrecompute bool `json:"time_precompute"`

	// CacheLimit bounds the total cached embeddings (default
	// DefaultCacheLimit, the paper's setting); each takes a
	// 4·NodeDim-byte row, a 24-byte slot and a reference bit of its
	// layer's slab (Cache.UsedBytes), allocated as the cache fills.
	// With more than one cached layer the limit is divided across
	// per-layer caches in proportion to expected lookup traffic
	// (SplitCacheLimit).
	CacheLimit int `json:"cache_limit"`
	// CachePolicy picks the cache eviction policy. The zero value is
	// CacheClock — second-chance FIFO, which keeps a row hit since it
	// was queued; CacheFIFO restores the paper's original policy.
	CachePolicy CachePolicy `json:"cache_policy"`
	// TimeWindow is the precomputed Δt window (default
	// DefaultTimeWindow).
	TimeWindow int `json:"time_window"`
}

// The paper's default settings: the cache's item limit and the
// precomputed Δt window. OptAll and every unset Options field take them.
const (
	DefaultCacheLimit = 2_000_000
	DefaultTimeWindow = 10_000
)

// OptAll returns Options with all three optimizations enabled at the
// paper's default settings.
func OptAll() Options {
	return Options{
		EnableDedup:          true,
		EnableCache:          true,
		EnableTimePrecompute: true,
		CacheLimit:           DefaultCacheLimit,
		TimeWindow:           DefaultTimeWindow,
	}
}

func (o Options) withDefaults() Options {
	if o.CacheLimit <= 0 {
		o.CacheLimit = DefaultCacheLimit
	}
	if o.TimeWindow <= 0 {
		o.TimeWindow = DefaultTimeWindow
	}
	return o
}

// Engine pipeline stages, the keys of Engine.StageStats. They partition
// Algorithm 1's per-layer work the way a serving deployment needs to
// observe it: neighbor sampling, deduplication (filter + invert), cache
// key computation and lookup, time encoding (zero + delta), the
// attention operator, and the cache store. opStage says which
// operations each stage pools.
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

// opStage is the stage each operation belongs to; the feature gathers
// (and the device model's table upload, which the engine never runs)
// belong to none.
var opStage = [stats.NumOps]string{
	stats.OpNghLookup:    StageSample,
	stats.OpDedupFilter:  StageDedup,
	stats.OpDedupInvert:  StageDedup,
	stats.OpComputeKeys:  StageCacheLookup,
	stats.OpCacheLookup:  StageCacheLookup,
	stats.OpTimeEncZero:  StageTimeEncode,
	stats.OpTimeEncDelta: StageTimeEncode,
	stats.OpAttention:    StageAttention,
	stats.OpCacheStore:   StageCacheStore,
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
	// same ⟨node, t⟩. Nil on static-sampler engines. memoEpoch is its
	// validity stamp: every path that repairs or drops memo state bumps
	// it as its last step, so a row computed while such a path ran can
	// never be served after it.
	topMemo   *topMemo
	memoEpoch atomic.Int64
	ttable    *TimeTable
	// packs[l-1] is layer l's weight pack (tgat.Model.PackLayers) and
	// scorePack the affinity head's (tgat.Model.PackScore). Like ttable
	// they are derived from the parameters, so they are built once, in
	// NewEngine: a new params version is a new engine.
	packs     []nn.LayerPack
	scorePack nn.MergePack
	// indexes[l] is layer l's WindowIndex: every window each cached
	// entry read, its target's and (l ≥ 2) its sampled neighbours'. dyn
	// is the live graph when serving a stream. The indexes are the
	// engine's one invalidation structure: every cache-enabled engine
	// over a live graph builds them, and they make late inserts, appends
	// and deletions selective, transitively across cached layers
	// (DESIGN.md §11). A static-sampler engine builds none: no edge can
	// arrive. A record lives until the watermark floor passes it
	// (indexFloor), cached or not: an upper entry may still depend on an
	// evicted value.
	indexes []*WindowIndex
	dyn     *graph.Dynamic
	// keepAll pins indexFloor at −∞ (tests: the no-retirement baseline).
	keepAll bool
	// maxEmbedBits holds the float bits of the largest query timestamp
	// ever embedded or loaded from a snapshot — an upper bound on any
	// memo's t' at any layer (neighbor recursion only descends in time).
	// InvalidateEdge consults it so the steady-state append (no
	// future-time memos outstanding) costs one atomic load.
	maxEmbedBits atomic.Uint64
	// ops is the engine's one record of its work: per operation, a
	// latency histogram (calls and wall time) and an item count, written
	// by observe with atomic adds only. Stage histograms, Table 3, the
	// device price and the experiments all read it.
	ops stats.Collector
}

// NewEngine creates an engine over a trained model and a most-recent
// sampler. Using a Uniform sampler with EnableCache panics: memoization
// is only sound when re-sampling a target reproduces the same temporal
// subgraph (§3.2, §7). The engine packs the model's layer weights here,
// so the model's parameters must not change afterwards: a params swap
// builds a new model (tgat.Model.WithParams) and a new engine over it.
func NewEngine(m *tgat.Model, s *graph.Sampler, opt Options) *Engine {
	opt = opt.withDefaults()
	e := &Engine{model: m, sampler: s, opt: opt}
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
		e.indexes = make([]*WindowIndex, len(e.caches))
		for l, c := range e.caches {
			if c != nil {
				e.indexes[l] = NewWindowIndex()
			}
		}
	}
	if opt.EnableTimePrecompute {
		e.ttable = NewTimeTable(m.Time, opt.TimeWindow)
	}
	return e
}

// Options returns the engine's (defaulted) options.
func (e *Engine) Options() Options { return e.opt }

// Model returns the underlying TGAT model.
func (e *Engine) Model() *tgat.Model { return e.model }

// ScoreWith computes link-prediction logits with the model's affinity
// head, over the engine's pack of it.
func (e *Engine) ScoreWith(ar *tensor.Arena, hSrc, hDst *tensor.Tensor) *tensor.Tensor {
	return e.model.ScorePacked(ar, &e.scorePack, hSrc, hDst)
}

// ParamsVersion returns the version of the model the engine was built
// over, for reporting. Nothing checks it for validity:
// tgat.Model.LoadParams keeps the label, so two different parameter
// sets can carry the same one. A cache snapshot carries the digest of
// the parameters themselves (LoadCachesFS).
func (e *Engine) ParamsVersion() uint64 { return e.model.Version() }

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

// StageStats returns the engine's per-stage latency histograms, keyed
// by the Stage* constants: each is the merge of its operations'
// histograms in the engine's table (opStage), so it is the pooled
// distribution of every observation of those operations so far. A new
// map each call, for scrapes.
func (e *Engine) StageStats() map[string]*stats.Histogram {
	out := make(map[string]*stats.Histogram, len(Stages))
	for _, st := range Stages {
		out[st] = stats.NewHistogram()
	}
	for op, st := range opStage {
		if st != "" {
			out[st].Merge(e.ops.Hist(stats.Op(op)))
		}
	}
	return out
}

// Ops returns the engine's per-operation table: every operation's
// calls, wall time and items since the engine was built (Table 3; the
// work device.Price prices). Live and safe for concurrent reads.
func (e *Engine) Ops() *stats.Collector { return &e.ops }

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
// (u, v, t) was written to the live graph: appended, sorted-inserted
// late, or deleted (graph.Dynamic.Ingest and DeleteEdge, the graph
// changes of §7). It is the engine's one invalidation rule (DESIGN.md
// §11): a memoized ⟨w, t'⟩ read only edges before t', so the write can
// stale only rows with t' > t, and of those only the ones whose
// most-recent-k window the edge enters (CountBetween counts only edges
// strictly between t and t', so an insert and a delete at t move a
// window alike). Every other row stays (reuse maximized, §7). Returns
// the number of entries removed.
//
// Every row's time is at most the largest query time ever embedded or
// loaded (neighbor recursion only descends in time), so when that bound
// is at or below t nothing can hold the edge and the call costs one
// atomic load: the steady-state append. An edge below ⌊watermark⌋
// clears every layer, since records in (t, ⌊watermark⌋) may already be
// retired, and so does any edge on a static-sampler engine, which keeps
// no index.
func (e *Engine) InvalidateEdge(u, v int32, t float64) int {
	defer e.memoEpoch.Add(1)
	if e.caches == nil || math.Float64frombits(e.maxEmbedBits.Load()) <= t {
		return 0
	}
	if e.dyn == nil || t < math.Floor(e.dyn.Watermark()) {
		return e.clearCaches()
	}
	return e.invalidateNewer(u, v, t)
}

// InvalidateLateEdge is InvalidateEdge for a sorted-inserted late edge.
func (e *Engine) InvalidateLateEdge(u, v int32, t float64) int { return e.InvalidateEdge(u, v, t) }

// InvalidateAppend is InvalidateEdge for a chronological append.
func (e *Engine) InvalidateAppend(u, v int32, t float64) int { return e.InvalidateEdge(u, v, t) }

// invalidateNewer is InvalidateEdge's selective body. Layers are
// processed bottom up; a layer-l entry is dropped when a window it read
// — its target's or a sampled neighbour's — is displaced by the written
// edge (one scan of each endpoint's records), or when a layer-(l−1)
// value it read was dropped in the previous pass (CollectUpper). The
// first rule is exact for L = 3 — layer-1 values depend only on their
// own window and layer-0 features, whose writes clear every layer
// (InvalidateNode) — and the second carries deeper models, relying on
// records outliving the eviction of their entries (see WindowIndex).
func (e *Engine) invalidateNewer(u, v int32, t float64) int {
	// A shed record means some entry's dependencies are unknown: that
	// layer and every layer above it clear this one time (their indexes
	// reset with them, so tracking restarts clean).
	clearFrom, floor := e.shedFrom(), e.indexFloor(t)
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
		ix := e.indexes[l]
		for _, w := range endpoints[:n] {
			drop = append(drop, ix.collect(w, t, floor, displacesWindow(w))...)
		}
		for _, lower := range displaced {
			drop = append(drop, ix.CollectUpper(lower, floor)...)
		}
		removed += c.Remove(drop)
		// Propagate every displaced value, cached or not: an upper
		// entry may have consumed it before it aged out of this cache.
		displaced = drop
	}
	return removed
}

// shedFrom returns the lowest cached layer whose index shed a record
// since its last reset, or len(e.caches) if none.
func (e *Engine) shedFrom() int {
	for l := 1; l < len(e.caches); l++ {
		if ix := e.IndexFor(l); ix != nil && ix.Shed() {
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
// to run before the graph accepts the next edge, as /v1/ingest does
// under the graph's write gate. An invalidation for an edge below the watermark
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

// IndexFor returns layer l's window index, or nil.
func (e *Engine) IndexFor(l int) *WindowIndex {
	if e.indexes == nil || l < 1 || l >= len(e.indexes) {
		return nil
	}
	return e.indexes[l]
}

// clearCaches empties every cached layer and resets its index,
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

// clearLayer empties layer l's cache and resets its index, returning
// the number of entries dropped.
func (e *Engine) clearLayer(l int) int {
	n := e.caches[l].Len()
	e.caches[l].Clear()
	if ix := e.IndexFor(l); ix != nil {
		ix.Reset()
	}
	return n
}

// LayerCacheStats is one cached layer's slice of the cache counters,
// plus its resident footprint — the per-layer breakdown behind the
// serving plane's cache_layers stats section and the
// tgopt_cache_layer_* metrics.
type LayerCacheStats struct {
	Layer int   `json:"layer"`
	Items int   `json:"items"`
	Bytes int64 `json:"bytes"`
	// IndexRecords counts the layer's live window-index records.
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
		if ix := e.IndexFor(l); ix != nil {
			ls.IndexRecords = ix.Len()
		}
		out = append(out, ls)
	}
	return out
}

// EmbedFunc adapts the engine to the inference driver's signature.
func (e *Engine) EmbedFunc() tgat.EmbedFunc { return e.Embed }

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
//
// On a live graph the pass holds the read side of the graph's write
// gate from start to end (graph.Dynamic.Gate), so a gated writer's
// edge and its invalidation land both before the pass or both after it.
func (e *Engine) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if len(nodes) != len(ts) {
		panic("core: Embed nodes/ts length mismatch")
	}
	if e.dyn != nil {
		gate := e.dyn.Gate()
		gate.RLock()
		defer gate.RUnlock()
	}
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
	e.observe(stats.OpDedupInvert, len(h.Idx), start)
	return out
}

// noteEmbedTimes advances the monotonic bound on embedded query
// timestamps (see InvalidateEdge). One scan and at most a few CAS
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

// observe records one call of op that started at `start` and handled
// n items into the engine's table. It takes the start time rather than
// returning a closure, so the embed hot path allocates nothing.
func (e *Engine) observe(op stats.Op, n int, start time.Time) {
	e.ops.Observe(op, time.Since(start), int64(n))
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
		e.observe(stats.OpFeatLookup, len(nodes), start)
		return h
	}

	// §4.1 — deduplicate targets. Applied for l > 0 only, as in the
	// paper: layer 0 is a pure gather, so deduplicating it buys nothing.
	var inv []int32
	if e.opt.EnableDedup {
		start := time.Now()
		res := DedupFilterWith(ar, nodes, ts)
		e.observe(stats.OpDedupFilter, len(nodes), start)
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
		e.observe(stats.OpComputeKeys, n, start)
		start = time.Now()
		hitMask = ar.Bools(n)
		nhits = cache.lookupExact(keys, inexact, h, hitMask)
		e.observe(stats.OpCacheLookup, n, start)
	}

	// Top layer on a live graph: answer re-asked targets from the memo.
	// A row hits only if it was stored under the current epoch, and the
	// rows computed below are stored under the epoch read here — so an
	// all-hit pass samples, looks up, encodes and attends nothing.
	var memo *topMemo
	var epoch int64
	if l == cfg.Layers && e.topMemo != nil {
		memo, epoch = e.topMemo, e.memoEpoch.Load()
		hitMask = ar.Bools(n)
		nhits = memo.lookup(epoch, nodes, ts, h, hitMask)
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
		e.observe(stats.OpNghLookup, nm, start)

		// Recurse over targets ∪ neighbors (line 12). A padded slot
		// recurses as ⟨0, 0⟩ rather than the ⟨0, t⟩ it carries: the layer
		// pass never reads its row, node 0 has no edges so its embedding
		// is the same at every time, and dedup then folds a level's
		// padding into one row, which the cache holds exactly.
		allNodes := ar.Int32s(nm + nm*k)
		allTs := ar.Float64s(nm + nm*k)
		copy(allNodes, missNodes)
		copy(allTs, missTs)
		copy(allNodes[nm:], b.Nghs)
		for j, ok := range b.Valid {
			allTs[nm+j] = 0
			if ok {
				allTs[nm+j] = b.Times[j]
			}
		}
		hAll := e.embed(ar, l-1, allNodes, allTs)
		hTgt, hNgh := hAll.Slice(ar, 0, nm), hAll.Slice(ar, nm, nm+nm*k)

		tEnc0 := e.encodeZeros(ar, nm)

		start = time.Now()
		eFeat := featureRows(ar, e.model.EdgeFeat, b.EIdxs)
		e.observe(stats.OpFeatLookup, nm*k, start)

		// Φ(t − t_j) is encoded inside the layer pass, one valid slot at
		// a time, straight into the tile's kv row. The pass's wall time
		// is split by the tiles' measured encode share: TimeEncode(Δt)
		// gets that part, as one call over every slot (padded included,
		// which the device price reads), and attention M the rest.
		deltas := ar.Float64s(nm * k)
		for i := 0; i < nm; i++ {
			for j := 0; j < k; j++ {
				deltas[i*k+j] = missTs[i] - b.Times[i*k+j]
			}
		}
		tEncD := nn.TimeRows{Deltas: deltas, Source: e.model.Time}
		if e.ttable != nil {
			tEncD.Source = e.ttable
		}
		start = time.Now()
		hm, encShare := e.model.LayerForwardPacked(ar, l, &e.packs[l-1], hTgt, hNgh, eFeat, tEnc0, tEncD, b.Valid)
		wall := time.Since(start)
		enc := time.Duration(float64(wall) * encShare)
		e.ops.Observe(stats.OpTimeEncDelta, enc, int64(nm*k))
		e.ops.Observe(stats.OpAttention, wall-enc, int64(nm))

		if cache != nil {
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
			e.observe(stats.OpCacheStore, nm, start)
			if ix := e.IndexFor(l); ix != nil {
				// Record every window the entry read: its target's and,
				// on a deep layer, each sampled neighbour's, read
				// straight off the batch (padding slots carry node 0).
				// A target outside Key's domain is never stored, so it
				// files no record of its own; its neighbours' records
				// still carry its folded key up to CollectUpper.
				// Recording only runs on the miss path, so the all-hit
				// steady state stays allocation-free.
				floor := e.indexFloor(math.Inf(1))
				for i := 0; i < nm; i++ {
					if inexact == nil || inKeyDomain(missTs[i]) {
						ix.Record(missNodes[i], missKeys[i], missTs[i], floor)
					}
					if l >= 2 {
						for j := i * k; j < (i+1)*k; j++ {
							ix.Record(b.Nghs[j], missKeys[i], b.Times[j], floor)
						}
					}
				}
			}
		}

		// A row stored under an epoch that has moved could never hit.
		if memo != nil && e.memoEpoch.Load() == epoch {
			memo.store(epoch, missNodes, missTs, hm)
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
		e.observe(stats.OpTimeEncZero, n, start)
		return out
	}
	start := time.Now()
	zeros := ar.Float64s(n)
	clear(zeros) // arena scratch is dirty; the encoder reads it
	e.model.Time.EncodeInto(zeros, out)
	e.observe(stats.OpTimeEncZero, n, start)
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

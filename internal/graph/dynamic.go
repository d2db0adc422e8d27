package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Dynamic is a continuous-time dynamic graph that grows by appending
// chronological edge interactions — the streaming counterpart of the
// immutable Graph, implementing the §7 assumption that "the graph only
// evolves new edge interactions". Appends keep every per-node adjacency
// time-sorted in O(1), so sampling stays a binary search plus a suffix
// copy.
//
// Real event streams are not chronological. SetLateness opens a
// bounded-lateness reordering window: an edge whose timestamp trails
// the stream clock by at most the window is accepted by sorted insert
// (Ingest), anything older is dropped against the low-watermark
// and counted (the Flink/StreamTGN allowed-lateness discipline). Cache
// layers above stay exact through one selective invalidation per write
// (core.Engine.InvalidateEdge) — see DESIGN.md §11.
//
// Dynamic is safe for concurrent use: mutations take the write lock,
// and a Sampler holds the read lock for a whole SampleTo call, copying
// every window into its Batch before it lets go. No adjacency slice is
// read outside the lock, so history-rewriting mutations (late inserts,
// DeleteEdge) shift the affected suffix in place and appends keep their
// amortized capacity. Embeddings memoized for a target ⟨i, t⟩ remain
// valid across any write of an edge at a time ≥ t (the §3.2 property);
// a write below t requires the invalidation above.
//
// That lock guards one call. The write gate (Gate) spans many: a
// writer that runs concurrently with engine passes holds its write
// side across a write and the write's invalidation, and every engine
// pass over the graph holds its read side, so no pass sees a write
// without its invalidation.
type Dynamic struct {
	gate     sync.RWMutex
	mu       sync.RWMutex
	numNodes int
	lastTime float64
	lateness float64  // bounded-lateness window; 0 = strict chronological
	edges    []Edge   // time-sorted; equal timestamps in arrival order
	adj      []dynAdj // index 0 is the padding node and stays empty
	// byIdx maps a live edge id to its timestamp, making DeleteEdge a
	// map probe plus a binary search instead of an O(E) scan, and
	// letting validation reject duplicate ids.
	byIdx   map[int32]float64
	nextIdx int32 // next auto-assigned edge id; never reused after deletes
	// deadEdges counts tombstoned stream slots: DeleteEdge marks the
	// slot instead of splicing (which would memmove the O(E) suffix),
	// and compaction reclaims slots once they dominate, so deletion
	// stays O(degree + log E) amortized.
	deadEdges int

	lateAccepted atomic.Int64
	lateDropped  atomic.Int64
}

// edgeTombstone marks a deleted slot in the time-sorted edge stream.
// The slot keeps its timestamp so the binary searches over the stream
// stay sound; live edge ids are always >= 1.
const edgeTombstone int32 = -1

type dynAdj struct {
	nghs  []int32
	eidxs []int32
	times []float64
}

// NewDynamic creates an empty dynamic graph over nodes 1..numNodes.
func NewDynamic(numNodes int) *Dynamic {
	return &Dynamic{
		numNodes: numNodes,
		adj:      make([]dynAdj, numNodes+1),
		byIdx:    make(map[int32]float64),
		nextIdx:  1,
	}
}

// NumNodes returns the current node count (excluding padding node 0).
func (d *Dynamic) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.numNodes
}

// NumEdges returns the number of live interactions.
func (d *Dynamic) NumEdges() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.edges) - d.deadEdges
}

// MaxTime returns the stream clock: the latest timestamp accepted.
func (d *Dynamic) MaxTime() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lastTime
}

// SetLateness configures the bounded-lateness reordering window. Edges
// arriving with timestamps in [MaxTime−w, MaxTime) are accepted by
// sorted insert; older ones are dropped against the watermark. Zero
// (the default) keeps the strict chronological contract. Set it before
// the first edge: afterwards it panics, because a wider window would
// move the watermark back, and the caches above retire state the
// watermark has passed (core.WindowIndex).
func (d *Dynamic) SetLateness(w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic("graph: lateness window must be finite and >= 0")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.nextIdx > 1 { // an edge id was handed out
		panic("graph: SetLateness after the graph has held an edge")
	}
	d.lateness = w
}

// Lateness returns the configured bounded-lateness window.
func (d *Dynamic) Lateness() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lateness
}

// Watermark returns the stream's low-watermark MaxTime − Lateness: the
// oldest timestamp a late edge may carry and still be accepted. It never
// moves back.
func (d *Dynamic) Watermark() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.lastTime - d.lateness
}

// Gate returns the graph's write gate. An engine pass holds its read
// side from start to end (core.Engine.EmbedWith); a writer running
// beside passes holds its write side across each write and that
// write's invalidation. Nothing takes the read side while holding it:
// a nested RLock deadlocks once a writer waits.
func (d *Dynamic) Gate() *sync.RWMutex { return &d.gate }

// LateAccepted returns the number of out-of-order edges accepted by
// sorted insert.
func (d *Dynamic) LateAccepted() int64 { return d.lateAccepted.Load() }

// LateDropped returns the number of edges dropped below the watermark.
func (d *Dynamic) LateDropped() int64 { return d.lateDropped.Load() }

// validateLocked rejects edges the graph must never absorb: endpoints
// outside 1..numNodes, non-finite timestamps (NaN compares false
// against every clock check and would poison lastTime and the sorted
// invariant behind window's binary search), and duplicate edge ids.
func (d *Dynamic) validateLocked(e Edge) error {
	if e.Src < 1 || int(e.Src) > d.numNodes || e.Dst < 1 || int(e.Dst) > d.numNodes {
		return fmt.Errorf("graph: edge endpoints (%d,%d) out of range 1..%d", e.Src, e.Dst, d.numNodes)
	}
	if math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return fmt.Errorf("graph: non-finite edge time %v", e.Time)
	}
	if e.Idx != 0 {
		if _, dup := d.byIdx[e.Idx]; dup {
			return fmt.Errorf("graph: duplicate edge id %d", e.Idx)
		}
	}
	return nil
}

// assignIdxLocked fills in an automatic edge id and keeps the
// auto-assignment counter above every id ever used, so ids are never
// reused even after deletions.
func (d *Dynamic) assignIdxLocked(e *Edge) {
	if e.Idx == 0 {
		e.Idx = d.nextIdx
	}
	if e.Idx >= d.nextIdx {
		d.nextIdx = e.Idx + 1
	}
}

// Append adds one undirected interaction. Timestamps must be
// non-decreasing across calls (the CTDG stream order); an Idx of 0 is
// assigned automatically from a never-reused counter. It returns the
// edge id used. Out-of-order edges are an error here — use Ingest on
// streams with a configured lateness window.
func (d *Dynamic) Append(e Edge) (int32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.validateLocked(e); err != nil {
		return 0, err
	}
	if e.Time < d.lastTime {
		return 0, fmt.Errorf("graph: edge time %v precedes stream time %v", e.Time, d.lastTime)
	}
	return d.appendLocked(e), nil
}

// appendLocked adds a validated edge at or past the stream clock.
func (d *Dynamic) appendLocked(e Edge) int32 {
	d.assignIdxLocked(&e)
	src := &d.adj[e.Src]
	src.nghs = append(src.nghs, e.Dst)
	src.eidxs = append(src.eidxs, e.Idx)
	src.times = append(src.times, e.Time)
	dst := &d.adj[e.Dst]
	dst.nghs = append(dst.nghs, e.Src)
	dst.eidxs = append(dst.eidxs, e.Idx)
	dst.times = append(dst.times, e.Time)
	d.edges = append(d.edges, e)
	d.byIdx[e.Idx] = e.Time
	d.lastTime = e.Time
	return e.Idx
}

// insertLateLocked adds a validated out-of-order edge, at or above the
// low-watermark and below the stream clock, by sorted insert into the
// edge stream and both endpoints' adjacency. Equal timestamps order
// after previously arrived ones (matching Append's tie behavior).
//
// A late insert rewrites history: callers holding a TGOpt engine over
// this graph must invalidate the dependent memoized embeddings
// (core.Engine.InvalidateEdge) to preserve semantics. Cost is O(window) plus the log-degree searches:
// the stream and both endpoints' adjacency shift only the suffix the
// lateness window bounds, in place under the write lock.
func (d *Dynamic) insertLateLocked(e Edge) int32 {
	d.assignIdxLocked(&e)
	// Sorted insert into the edge stream: upper bound by time, so ties
	// keep arrival order. The shift is bounded by the lateness window.
	pos := sort.Search(len(d.edges), func(i int) bool { return d.edges[i].Time > e.Time })
	d.edges = append(d.edges, Edge{})
	copy(d.edges[pos+1:], d.edges[pos:])
	d.edges[pos] = e
	d.adj[e.Src].insert(e.Dst, e.Idx, e.Time)
	if e.Dst != e.Src {
		d.adj[e.Dst].insert(e.Src, e.Idx, e.Time)
	}
	d.byIdx[e.Idx] = e.Time
	d.lateAccepted.Add(1)
	return e.Idx
}

// insert places a neighbor slot after every slot at or before time t,
// shifting the suffix in place.
func (a *dynAdj) insert(ngh, eidx int32, t float64) {
	pos := sort.Search(len(a.times), func(i int) bool { return a.times[i] > t })
	a.nghs = slices.Insert(a.nghs, pos, ngh)
	a.eidxs = slices.Insert(a.eidxs, pos, eidx)
	a.times = slices.Insert(a.times, pos, t)
}

// remove deletes the slot of edge eidx at time t, shifting the suffix in
// place, and reports whether the slot existed.
func (a *dynAdj) remove(eidx int32, t float64) bool {
	for i := sort.SearchFloat64s(a.times, t); i < len(a.times) && a.times[i] == t; i++ {
		if a.eidxs[i] == eidx {
			a.nghs = slices.Delete(a.nghs, i, i+1)
			a.eidxs = slices.Delete(a.eidxs, i, i+1)
			a.times = slices.Delete(a.times, i, i+1)
			return true
		}
	}
	return false
}

// IngestResult classifies how Ingest disposed of an edge.
type IngestResult int

const (
	// IngestAppended: the edge was in order and appended.
	IngestAppended IngestResult = iota
	// IngestLate: the edge was out of order but inside the lateness
	// window, and was accepted by sorted insert.
	IngestLate
	// IngestDropped: the edge was older than the low-watermark and was
	// dropped (counted, never applied).
	IngestDropped
)

// String implements fmt.Stringer.
func (r IngestResult) String() string {
	switch r {
	case IngestAppended:
		return "appended"
	case IngestLate:
		return "late"
	case IngestDropped:
		return "dropped"
	default:
		return "unknown"
	}
}

// Ingest absorbs one edge from a possibly out-of-order live stream:
// in-order edges append, edges inside the lateness window sorted-insert
// (see insertLateLocked), and edges below the watermark are dropped and
// counted without error. The caller then runs the edge's cache
// invalidation unless it was dropped.
// Invalid edges (bad endpoints, non-finite times, duplicate ids) error
// without touching the graph.
func (d *Dynamic) Ingest(e Edge) (IngestResult, int32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.validateLocked(e); err != nil {
		return IngestDropped, 0, err
	}
	if e.Time >= d.lastTime {
		return IngestAppended, d.appendLocked(e), nil
	}
	if e.Time < d.lastTime-d.lateness {
		d.lateDropped.Add(1)
		return IngestDropped, 0, nil
	}
	return IngestLate, d.insertLateLocked(e), nil
}

// windowLocked returns the temporal prefix N(v, t). The slices alias
// the adjacency arrays, which mutations shift in place: the caller holds
// d.mu and reads them before releasing it.
func (d *Dynamic) windowLocked(v int32, t float64) (nghs, eidxs []int32, times []float64) {
	if int(v) >= len(d.adj) {
		return nil, nil, nil
	}
	a := &d.adj[v]
	hi := sort.Search(len(a.times), func(k int) bool { return a.times[k] >= t })
	return a.nghs[:hi], a.eidxs[:hi], a.times[:hi]
}

// CountBetween returns how many of v's interactions carry a timestamp
// strictly inside (lo, hi). Cache invalidation uses it to decide
// whether a late edge at time lo can enter the most-recent-k window of
// a memoized target at time hi: with k or more newer interactions in
// between, it cannot.
func (d *Dynamic) CountBetween(v int32, lo, hi float64) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(v) >= len(d.adj) {
		return 0
	}
	a := &d.adj[v]
	i := sort.Search(len(a.times), func(k int) bool { return a.times[k] > lo })
	j := sort.Search(len(a.times), func(k int) bool { return a.times[k] >= hi })
	if j < i {
		return 0
	}
	return j - i
}

// DeleteEdge removes the interaction with the given 1-based edge id
// from the graph — the §7 edge-deletion event. It reports whether the
// edge existed. The id index plus a binary search over the time-sorted
// stream make removal O(degree + log E). Deletion rewrites history:
// callers holding a TGOpt engine over this graph must invalidate
// dependent cache entries (core.Engine.InvalidateEdge) to preserve
// semantics.
func (d *Dynamic) DeleteEdge(eidx int32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.byIdx[eidx]
	if !ok {
		return false
	}
	// First edge at time t, then scan the (typically tiny) equal-time
	// run for the matching id.
	pos := -1
	for i := sort.Search(len(d.edges), func(i int) bool { return d.edges[i].Time >= t }); i < len(d.edges) && d.edges[i].Time == t; i++ {
		if d.edges[i].Idx == eidx {
			pos = i
			break
		}
	}
	if pos < 0 {
		return false // unreachable while byIdx stays consistent
	}
	e := d.edges[pos]
	// Tombstone instead of splicing: a splice would memmove the whole
	// suffix, making every deletion O(E) regardless of the lookup cost.
	d.edges[pos] = Edge{Time: e.Time, Idx: edgeTombstone}
	d.deadEdges++
	if d.deadEdges > 1024 && d.deadEdges > len(d.edges)/2 {
		d.compactEdgesLocked()
	}
	d.adj[e.Src].remove(eidx, t)
	if e.Dst != e.Src {
		d.adj[e.Dst].remove(eidx, t)
	}
	delete(d.byIdx, eidx)
	return true
}

// compactEdgesLocked rewrites the edge stream without its tombstoned
// slots, preserving order.
func (d *Dynamic) compactEdgesLocked() {
	w := 0
	for _, e := range d.edges {
		if e.Idx != edgeTombstone {
			d.edges[w] = e
			w++
		}
	}
	d.edges = d.edges[:w]
	d.deadEdges = 0
}

// copyEdgesLocked returns the live edge stream in chronological order,
// skipping tombstoned slots.
func (d *Dynamic) copyEdgesLocked() []Edge {
	out := make([]Edge, 0, len(d.edges)-d.deadEdges)
	for _, e := range d.edges {
		if e.Idx != edgeTombstone {
			out = append(out, e)
		}
	}
	return out
}

// Edges returns a copy of the live edge stream in chronological order.
func (d *Dynamic) Edges() []Edge {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.copyEdgesLocked()
}

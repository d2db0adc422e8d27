// Package graph implements continuous-time dynamic graph (CTDG) storage
// and temporal neighbor sampling for TGAT inference and training.
//
// A dynamic graph is a chronologically ordered stream of edge
// interactions. Storage follows the T-CSR layout of the TGL framework
// (Zhou et al., VLDB 2022) that the paper's custom C++ sampler is
// inspired by: per-node adjacency lists sorted by edge timestamp, packed
// into a CSR structure, so that the temporal neighborhood
// N(i, t) = {j : e_ij(t_j), t_j < t} is a prefix of the node's list found
// by binary search.
//
// Node ids are 1-based: id 0 is the padding node whose features are all
// zero, matching the TGAT artifact's ml_{name}_node.npy convention of
// |V|+1 feature rows. Edge ids are likewise 1-based with 0 reserved for
// padding.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a single timestamped interaction between two nodes. Idx is the
// 1-based edge id used to look up edge features.
type Edge struct {
	Src, Dst int32
	Time     float64
	Idx      int32
}

// Graph is an immutable CTDG with a T-CSR adjacency index. Build one
// with NewGraph; the zero value is an empty graph.
type Graph struct {
	numNodes int // excludes the padding node 0
	edges    []Edge

	// T-CSR arrays. For node v, its temporal adjacency (sorted by
	// ascending time) occupies positions indptr[v] .. indptr[v+1].
	indptr []int32
	nghs   []int32
	eidxs  []int32
	times  []float64
}

// NewGraph builds a graph over nodes 1..numNodes from a chronologically
// unordered edge list. Edges are treated as undirected (each interaction
// appears in both endpoints' adjacency), following the paper's setup
// where bipartite graphs are treated as homogeneous and all graphs as
// undirected. Edge.Idx values of 0 are assigned automatically as
// position+1.
func NewGraph(numNodes int, edges []Edge) (*Graph, error) {
	es := make([]Edge, len(edges))
	copy(es, edges)
	for i := range es {
		e := &es[i]
		if e.Idx == 0 {
			e.Idx = int32(i + 1)
		}
		if e.Src < 1 || int(e.Src) > numNodes || e.Dst < 1 || int(e.Dst) > numNodes {
			return nil, fmt.Errorf("graph: edge %d endpoints (%d,%d) out of range 1..%d", i, e.Src, e.Dst, numNodes)
		}
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].Time < es[j].Time })

	g := &Graph{numNodes: numNodes, edges: es}
	g.buildCSR()
	return g, nil
}

func (g *Graph) buildCSR() {
	n := g.numNodes
	deg := make([]int32, n+2)
	for _, e := range g.edges {
		deg[e.Src+1]++
		deg[e.Dst+1]++
	}
	indptr := make([]int32, n+2)
	for v := 1; v <= n+1; v++ {
		indptr[v] = indptr[v-1] + deg[v]
	}
	total := indptr[n+1]
	nghs := make([]int32, total)
	eidxs := make([]int32, total)
	times := make([]float64, total)
	cursor := make([]int32, n+1)
	copy(cursor, indptr[:n+1])
	// Edges are globally time-sorted, so appending in order keeps each
	// per-node list time-sorted without a second sort.
	for _, e := range g.edges {
		p := cursor[e.Src]
		nghs[p], eidxs[p], times[p] = e.Dst, e.Idx, e.Time
		cursor[e.Src]++
		p = cursor[e.Dst]
		nghs[p], eidxs[p], times[p] = e.Src, e.Idx, e.Time
		cursor[e.Dst]++
	}
	g.indptr, g.nghs, g.eidxs, g.times = indptr, nghs, eidxs, times
}

// NumNodes returns the number of real nodes (excluding padding node 0).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges returns the number of interactions.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edges returns the chronologically sorted edge stream. The slice must
// not be mutated.
func (g *Graph) Edges() []Edge { return g.edges }

// MaxTime returns the largest edge timestamp, or 0 for an empty graph.
func (g *Graph) MaxTime() float64 {
	if len(g.edges) == 0 {
		return 0
	}
	return g.edges[len(g.edges)-1].Time
}

// Degree returns the total (lifetime) undirected degree of node v.
func (g *Graph) Degree(v int32) int {
	return int(g.indptr[v+1] - g.indptr[v])
}

// neighborhood returns the CSR range for node v limited to edges with
// timestamp strictly less than t: the temporal constraint t_j < t of the
// paper's N(i, t).
func (g *Graph) neighborhood(v int32, t float64) (lo, hi int32) {
	lo = g.indptr[v]
	end := g.indptr[v+1]
	// Binary search for the first position with time >= t.
	slice := g.times[lo:end]
	hi = lo + int32(sort.Search(len(slice), func(k int) bool { return slice[k] >= t }))
	return lo, hi
}

// window returns the temporal prefix N(v, t) of node v's adjacency as
// time-sorted slices. The slices alias internal storage and must not be
// mutated.
func (g *Graph) window(v int32, t float64) (nghs, eidxs []int32, times []float64) {
	lo, hi := g.neighborhood(v, t)
	return g.nghs[lo:hi], g.eidxs[lo:hi], g.times[lo:hi]
}

// TemporalDegree returns |N(v, t)|: the number of interactions of v with
// timestamp strictly before t.
func (g *Graph) TemporalDegree(v int32, t float64) int {
	lo, hi := g.neighborhood(v, t)
	return int(hi - lo)
}

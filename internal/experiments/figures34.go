package experiments

import (
	"io"
	"math"

	"tgopt/internal/core"
)

// Figure3Point is one time bucket of the reuse-vs-recompute trend
// (paper Figure 3): how many embeddings were served from the cache
// (reused) versus computed (recomputed) for edges in this slice of the
// graph's lifetime.
type Figure3Point struct {
	Time       float64 // bucket upper bound (edge timestamp)
	Reused     int64
	Recomputed int64
}

// Figure3 replays the stream through a TGOpt engine with an effectively
// unbounded cache (the paper's analysis setting) and reports the
// reuse/recompute counts over `buckets` equal slices of the timeline.
func Figure3(w io.Writer, s Setup, name string, buckets int) ([]Figure3Point, error) {
	wl, err := LoadWorkload(name, s)
	if err != nil {
		return nil, err
	}
	if buckets < 1 {
		buckets = 20
	}
	opt := optAllScaled(s)
	opt.CacheLimit = 1 << 30 // unbounded for the redundancy analysis
	// Nothing is ever evicted, so the policy never acts: keep the paper's
	// FIFO policy.
	opt.CachePolicy = core.CacheFIFO
	eng := core.NewEngine(wl.Model, wl.Sampler, opt)

	edges := wl.DS.Graph.Edges()
	maxT := wl.DS.Graph.MaxTime()
	points := make([]Figure3Point, buckets)
	for i := range points {
		points[i].Time = maxT * float64(i+1) / float64(buckets)
	}
	var seen core.CacheStats
	for start := 0; start < len(edges); start += s.BatchSize {
		end := start + s.BatchSize
		if end > len(edges) {
			end = len(edges)
		}
		batch := edges[start:end]
		nb := len(batch)
		nodes := make([]int32, 2*nb)
		ts := make([]float64, 2*nb)
		for i, e := range batch {
			nodes[i], nodes[nb+i] = e.Src, e.Dst
			ts[i], ts[nb+i] = e.Time, e.Time
		}
		eng.Embed(nodes, ts)
		now := cacheTotals(eng)
		dh, dl := now.Hits-seen.Hits, now.Lookups-seen.Lookups
		seen = now
		bi := bucketOf(batch[nb-1].Time, maxT, buckets)
		points[bi].Reused += dh
		points[bi].Recomputed += dl - dh
	}
	fprintf(w, "Figure 3: embeddings reused vs recomputed over time (%s)\n", name)
	fprintf(w, "%12s %12s %12s\n", "time", "reused", "recomputed")
	for _, p := range points {
		fprintf(w, "%12.3g %12d %12d\n", p.Time, p.Reused, p.Recomputed)
	}
	var totalReuse, totalRecompute int64
	for _, p := range points {
		totalReuse += p.Reused
		totalRecompute += p.Recomputed
	}
	if totalReuse+totalRecompute > 0 {
		fprintf(w, "overall reuse ratio: %.1f%%\n",
			100*float64(totalReuse)/float64(totalReuse+totalRecompute))
	}
	return points, nil
}

func bucketOf(t, maxT float64, buckets int) int {
	if maxT <= 0 {
		return 0
	}
	b := int(t / maxT * float64(buckets))
	if b >= buckets {
		b = buckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Figure4Bucket is one bin of the Δt histogram (paper Figure 4), with
// geometric bin edges to expose the power-law head near zero.
type Figure4Bucket struct {
	Lo, Hi float64
	Count  int64
}

// Figure4 collects the time-delta values the time encoder processes
// during a full inference pass (after deduplication, as the optimized
// encoder sees them) and bins them geometrically.
func Figure4(w io.Writer, s Setup, name string, bins int) ([]Figure4Bucket, error) {
	wl, err := LoadWorkload(name, s)
	if err != nil {
		return nil, err
	}
	if bins < 2 {
		bins = 12
	}
	edges := wl.DS.Graph.Edges()
	var deltas []float64
	for start := 0; start < len(edges); start += s.BatchSize {
		end := start + s.BatchSize
		if end > len(edges) {
			end = len(edges)
		}
		batch := edges[start:end]
		nb := len(batch)
		nodes := make([]int32, 2*nb)
		ts := make([]float64, 2*nb)
		for i, e := range batch {
			nodes[i], nodes[nb+i] = e.Src, e.Dst
			ts[i], ts[nb+i] = e.Time, e.Time
		}
		for l := s.Layers; l >= 1; l-- {
			res := core.DedupFilter(nodes, ts)
			b := wl.Sampler.Sample(res.Nodes, res.Times)
			n := len(res.Nodes)
			for i := 0; i < n; i++ {
				for j := 0; j < b.K; j++ {
					p := i*b.K + j
					if b.Valid[p] {
						deltas = append(deltas, res.Times[i]-b.Times[p])
					}
				}
			}
			next := make([]int32, n+n*b.K)
			nextTs := make([]float64, n+n*b.K)
			copy(next, res.Nodes)
			copy(nextTs, res.Times)
			copy(next[n:], b.Nghs)
			copy(nextTs[n:], b.Times)
			nodes, ts = next, nextTs
		}
	}
	maxD := 1.0
	for _, d := range deltas {
		if d > maxD {
			maxD = d
		}
	}
	buckets := make([]Figure4Bucket, bins)
	// Geometric edges: [0,1), [1,r), [r,r²) ... covering maxD.
	r := math.Pow(maxD, 1/float64(bins-1))
	if r <= 1 {
		r = 2
	}
	lo := 0.0
	hi := 1.0
	for i := range buckets {
		buckets[i].Lo, buckets[i].Hi = lo, hi
		lo = hi
		hi *= r
	}
	for _, d := range deltas {
		for i := range buckets {
			if d < buckets[i].Hi || i == bins-1 {
				buckets[i].Count++
				break
			}
		}
	}
	fprintf(w, "Figure 4: distribution of time deltas seen by the time encoder (%s)\n", name)
	fprintf(w, "%14s %14s %12s\n", "dt >=", "dt <", "count")
	for _, b := range buckets {
		fprintf(w, "%14.4g %14.4g %12d\n", b.Lo, b.Hi, b.Count)
	}
	return buckets, nil
}

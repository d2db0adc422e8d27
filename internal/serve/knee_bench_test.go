package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// kneeFixture is a jodie-wiki-shaped graph at a tenth of its size and a
// model of serve-read's shape: two layers 32 wide, ten neighbours.
func kneeFixture(b *testing.B) (*tgat.Model, *graph.Graph) {
	b.Helper()
	spec, err := dataset.SpecByName("jodie-wiki")
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.Generate(spec.Scale(0.1), dataset.Options{FeatureDim: 32})
	if err != nil {
		b.Fatal(err)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: 32, EdgeDim: 32, TimeDim: 32, NumNeighbors: 10, Seed: 1}
	m, err := tgat.NewModel(cfg, ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		b.Fatal(err)
	}
	return m, ds.Graph
}

// kneeBodies builds n /v1/embed bodies as serve-read's reads are drawn:
// 16 targets each from a 512-target Zipf pool, all at a shared "now"
// one past the history that steps every 64 requests, so the engine
// mostly hits and each step brings a few misses.
func kneeBodies(b *testing.B, g *graph.Graph, n int) [][]byte {
	b.Helper()
	rng := tensor.NewRNG(7)
	edges := g.Edges()
	pool := make([]int32, 512)
	cum := make([]float64, len(pool))
	var total float64
	for i := range pool {
		ed := edges[rng.Intn(len(edges))]
		pool[i] = ed.Src
		if i%2 == 1 {
			pool[i] = ed.Dst
		}
		total += 1 / float64(i+1)
		cum[i] = total
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		req := embedRequest{Nodes: make([]int32, 16), Times: make([]float64, 16)}
		for j := range req.Nodes {
			req.Nodes[j] = pool[sort.SearchFloat64s(cum, rng.Float64()*total)]
			req.Times[j] = g.MaxTime() + 1 + float64(i/64)
		}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// BenchmarkServeKnee drives /v1/embed through the handler in process —
// no socket, closed loop — at 2, 16 and 64 concurrent clients. Each
// cell reports req/s and the p50 and p99 request latency: below the
// knee a request runs its own pass inline while a core is free, past
// it requests coalesce into shared passes. Run it with a fixed op
// count, so every cell serves the same requests:
//
//	go test -run '^$' -bench ServeKnee -benchtime 6000x ./internal/serve
func BenchmarkServeKnee(b *testing.B) {
	m, g := kneeFixture(b)
	for _, clients := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			dyn := graph.NewDynamic(g.NumNodes())
			for _, ed := range g.Edges() {
				if _, err := dyn.Append(ed); err != nil {
					b.Fatal(err)
				}
			}
			h := newTestServer(b, m, dyn, nil).Handler()
			bodies := kneeBodies(b, g, b.N)
			lat := make([]time.Duration, b.N)
			var next, failed atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					p := newReplay(h, "/v1/embed", nil)
					for i := int(next.Add(1) - 1); i < b.N; i = int(next.Add(1) - 1) {
						p.raw = bodies[i]
						t0 := time.Now()
						p.serve()
						lat[i] = time.Since(t0)
						if p.w.code != http.StatusOK {
							failed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d of %d requests failed", n, b.N)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			quantile := func(q float64) float64 {
				return float64(lat[int(math.Ceil(q*float64(len(lat))))-1]) / 1e6
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			b.ReportMetric(quantile(0.5), "p50-ms")
			b.ReportMetric(quantile(0.99), "p99-ms")
		})
	}
}

package graph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// buildStream appends n chronological edges to a graph with the given
// lateness window and returns the graph plus the assigned edge ids. The node count scales with n so the mean
// degree stays constant across sizes — the benchmarks then isolate the
// stream-size-dependent cost (the log E searches) from the O(degree)
// adjacency rebuild.
func buildStream(b *testing.B, n int, lateness float64) (*Dynamic, []int32) {
	b.Helper()
	nodes := n / 100
	d := NewDynamic(nodes)
	d.SetLateness(lateness)
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		idx, err := d.Append(Edge{Src: int32(1 + i%(nodes-1)), Dst: int32(2 + i%(nodes-2)), Time: float64(i)})
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = idx
	}
	return d, ids
}

// BenchmarkDynamicSampleParallel prices the read lock a shard pool's
// samplers share: b.RunParallel SampleTo calls (64 targets, k = 10,
// serial inside the call) over one shared Dynamic, against one Dynamic
// per goroutine, each with and without a writer appending an edge about
// every 20 µs. The private writer appends each edge to every graph, as
// per-shard replicas did. Run at -cpu 1,2,4,8: the shared/private gap
// at a given -cpu is the price of sharing.
func BenchmarkDynamicSampleParallel(b *testing.B) {
	const size, k, targets = 50_000, 10, 64
	nodes := size / 100
	for _, shared := range []bool{true, false} {
		for _, writer := range []bool{false, true} {
			name := map[bool]string{true: "shared", false: "private"}[shared] +
				map[bool]string{true: "/writer", false: "/no-writer"}[writer]
			b.Run(name, func(b *testing.B) {
				graphs := make([]*Dynamic, runtime.GOMAXPROCS(0))
				for i := range graphs {
					if shared && i > 0 {
						graphs[i] = graphs[0]
						continue
					}
					graphs[i], _ = buildStream(b, size, 0)
				}
				written := graphs
				if shared {
					written = graphs[:1]
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				if writer {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tick := time.NewTicker(20 * time.Microsecond)
						defer tick.Stop()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							case <-tick.C:
							}
							for _, d := range written {
								if _, err := d.Append(Edge{Src: int32(1 + i%(nodes-1)), Dst: int32(2 + i%(nodes-2)), Time: float64(size + i)}); err != nil {
									b.Error(err)
									return
								}
							}
						}
					}()
				}
				var next atomic.Int32
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					g := int(next.Add(1) - 1)
					s := NewDynamicSampler(graphs[g%len(graphs)], k, MostRecent, 0)
					batch := &Batch{
						Nghs:  make([]int32, targets*k),
						EIdxs: make([]int32, targets*k),
						Times: make([]float64, targets*k),
						Valid: make([]bool, targets*k),
					}
					vs := make([]int32, targets)
					ts := make([]float64, targets)
					for i := range vs {
						vs[i] = int32(1 + (g*targets+i*7)%(nodes-1))
						ts[i] = float64(size)
					}
					for pb.Next() {
						s.SampleTo(batch, vs, ts)
					}
				})
				b.StopTimer()
				close(stop)
				wg.Wait()
			})
		}
	}
}

// BenchmarkDeleteEdge measures removal cost at different stream sizes:
// the id index plus binary search keep it O(degree + log E), so the
// per-op time should stay nearly flat as E grows 10×.
func BenchmarkDeleteEdge(b *testing.B) {
	for _, size := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("E=%d", size), func(b *testing.B) {
			d, ids := buildStream(b, size, 0)
			nodes := size / 100
			// Delete and re-append in pairs so the stream size stays
			// steady across iterations.
			clock := float64(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if d.DeleteEdge(id) {
					clock++
					nid, err := d.Append(Edge{Src: int32(1 + i%(nodes-1)), Dst: int32(2 + i%(nodes-2)), Time: clock})
					if err != nil {
						b.Fatal(err)
					}
					ids[i%len(ids)] = nid
				}
			}
		})
	}
}

// BenchmarkInsertLate measures sorted insertion of an edge trailing the
// stream clock by half the lateness window, spread over the nodes and
// then always at one hub of degree ≥ 4 096: the insert shifts only the
// suffix, so the hub costs about what a small node does.
func BenchmarkInsertLate(b *testing.B) {
	for _, window := range []float64{100, 1000} {
		b.Run(fmt.Sprintf("window=%g", window), func(b *testing.B) {
			d, _ := buildStream(b, 50_000, window)
			nodes := 50_000 / 100
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm := d.MaxTime() - window/2
				if res, _, err := d.Ingest(Edge{Src: int32(1 + i%(nodes-1)), Dst: int32(2 + i%(nodes-2)), Time: tm}); err != nil || res != IngestLate {
					b.Fatal(res, err)
				}
			}
		})
	}
	b.Run("hub", func(b *testing.B) {
		const hubDegree = 4096
		d := NewDynamic(hubDegree + 1)
		d.SetLateness(100)
		for i := 0; i < hubDegree; i++ {
			if _, err := d.Append(Edge{Src: 1, Dst: int32(2 + i), Time: float64(i)}); err != nil {
				b.Fatal(err)
			}
		}
		tm := d.MaxTime() - 50
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, _, err := d.Ingest(Edge{Src: 1, Dst: int32(2 + i%hubDegree), Time: tm}); err != nil || res != IngestLate {
				b.Fatal(res, err)
			}
		}
	})
}

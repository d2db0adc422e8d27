package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
)

// chaosEmbedder injects faults into exactly one failure domain: while
// mode is non-zero, calls on the target shard panic (mode 1) or stall
// (mode 2). Every other shard computes normally.
type chaosEmbedder struct {
	core.Embedder
	shard  int
	target *atomic.Int32 // which shard id misbehaves (set after ring build)
	mode   *atomic.Int32
}

const (
	chaosOff   int32 = 0
	chaosPanic int32 = 1
	chaosStall int32 = 2
)

func (c *chaosEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if int32(c.shard) == c.target.Load() {
		switch c.mode.Load() {
		case chaosPanic:
			panic(fmt.Sprintf("chaos: injected panic on shard %d", c.shard))
		case chaosStall:
			time.Sleep(200 * time.Millisecond)
		}
	}
	return c.Embedder.EmbedWith(ar, nodes, ts)
}

// TestChaosShardPanicUnderLoad is the headline robustness test: under
// concurrent deadline-bounded load, one shard's engine panics
// repeatedly. The run must show (a) every non-degraded row of every
// response bitwise-identical to an unsharded single-engine run, (b) no
// whole-request failures beyond context expiry — shard death degrades,
// never errors, (c) no request outliving its deadline by more than
// scheduling slack, and (d) the victim crashing, the supervisor
// restarting it, and its own legs reaching it again.
func TestChaosShardPanicUnderLoad(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	var mode, victim atomic.Int32
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards: 4,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
		},
	})
	// Make the primary of the first queried node the victim so the
	// fault is guaranteed to sit on the request path.
	victim.Store(int32(r.Owner(nodes[0])))

	const (
		workers    = 8
		perWorker  = 30
		reqTimeout = 500 * time.Millisecond
	)
	var (
		wg          sync.WaitGroup
		hardFails   atomic.Int64
		overruns    atomic.Int64
		misrows     atomic.Int64
		clean       atomic.Int64
		degradedSum atomic.Int64
	)
	d := r.Dim()
	check := func(res *Result) {
		bad := map[int]bool{}
		for _, i := range res.Degraded {
			bad[i] = true
		}
		degradedSum.Add(int64(len(res.Degraded)))
		for i := range nodes {
			if bad[i] {
				continue
			}
			for j := 0; j < d; j++ {
				if res.Slab[i*d+j] != want[i*d+j] {
					misrows.Add(1)
					return
				}
			}
		}
		if !res.Partial {
			clean.Add(1)
		}
	}
	var completed atomic.Int64
	total := int64(workers * perWorker)
	// armed closes once the panic is armed. Workers hold at the quarter
	// mark until then: a workload that answers from memo finishes in less
	// than one waitFor poll, and the fault must land while load flows.
	armed := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if completed.Load() >= total/4 {
					<-armed
				}
				ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
				start := time.Now()
				res, err := r.Embed(ctx, nodes, ts)
				elapsed := time.Since(start)
				cancel()
				completed.Add(1)
				if elapsed > reqTimeout+300*time.Millisecond {
					overruns.Add(1)
				}
				if err != nil {
					if ctx.Err() == nil {
						hardFails.Add(1) // failed for a non-deadline reason
					}
					continue
				}
				check(res)
			}
		}()
	}

	// Mid-load: arm the panic once a quarter of the workload has flowed
	// (progress-synchronized, not wall-clock — the workload may be
	// arbitrarily fast), keep it armed until the victim demonstrably
	// panicked, then disarm and let the supervisor bring it back while
	// the remaining load keeps flowing.
	waitFor(t, 10*time.Second, func() bool { return completed.Load() >= total/4 })
	mode.Store(chaosPanic)
	close(armed)
	waitFor(t, 10*time.Second, func() bool {
		return r.shards[int(victim.Load())].panics.Load() > 0
	})
	mode.Store(chaosOff)
	wg.Wait()

	if n := hardFails.Load(); n != 0 {
		t.Errorf("%d whole-request failures; shard death must degrade, not fail", n)
	}
	if n := overruns.Load(); n != 0 {
		t.Errorf("%d requests overran their deadline", n)
	}
	if n := misrows.Load(); n != 0 {
		t.Errorf("%d responses had non-degraded rows differing from the unsharded reference", n)
	}
	if clean.Load() == 0 {
		t.Error("no clean full responses at all; pool never recovered")
	}

	// The victim must have crashed and restarted. The restart runs on
	// the supervisor goroutine, so wait rather than assert
	// instantaneously.
	vid := int(victim.Load())
	waitFor(t, 5*time.Second, func() bool {
		v := r.Stats().Shards[vid]
		return v.Panics > 0 && v.Restarts > 0
	})

	// After the storm the pool must settle back to full clean service.
	waitFor(t, 2*time.Second, func() bool {
		res, err := r.Embed(context.Background(), nodes, ts)
		return err == nil && !res.Partial
	})
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("post-recovery embed: err=%v partial=%v", err, res.Partial)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("post-restart slab[%d] = %v, want %v (not bitwise identical)", i, res.Slab[i], want[i])
		}
	}
	// The victim may have panicked again between its first restart and
	// the disarm — healthy shards serve the clean embeds above while
	// that second rebuild is still in flight — so wait for the
	// supervisor, then check the victim is up and serves its own rows
	// again.
	r.WaitRestarts()
	if v := r.Stats().Shards[vid]; v.Crashed {
		t.Fatalf("victim still crashed after its restarts: %+v", v)
	}
	calls := r.Stats().Shards[vid].Calls
	res, err = r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("embed after the victim's restart: err=%v partial=%v", err, res != nil && res.Partial)
	}
	if r.Stats().Shards[vid].Calls == calls {
		t.Fatal("the restarted victim served none of its own rows")
	}
	if !slices.Equal(res.Slab, want) {
		t.Fatal("rows served by the restarted victim differ from the unsharded reference")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestChaosRestartFromSnapshot pins the restart-from-snapshot leg: a
// crashed shard warms its rebuilt caches from its last snapshot (saved
// through a fault-injecting FS to prove the envelope survives), and a
// bit-flipped snapshot is detected and demoted to a cold start — the
// shard still comes back serving bitwise-correct rows either way.
func TestChaosRestartFromSnapshot(t *testing.T) {
	m := testModel(t)
	edges := testEdges(50)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)
	for name, corrupt := range map[string]bool{"warm": false, "corrupt-cold": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := faultfs.NewFS()
			var mode, victim atomic.Int32
			victim.Store(-1)
			r := newTestRouter(t, m, edges, Config{
				Shards:    3,
				CacheFile: dir,
				FS:        ffs,
				WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
					return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
				},
			})
			victim.Store(int32(r.Owner(nodes[0])))
			vid := int(victim.Load())

			if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
				t.Fatal(err)
			}
			if err := r.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				path := filepath.Join(dir, fmt.Sprintf("shard-%d.tgc", vid))
				if err := faultfs.FlipBit(path, 120); err != nil {
					t.Fatal(err)
				}
			}
			loadsBefore := r.Stats().SnapshotLoads

			// Kill the victim once.
			mode.Store(chaosPanic)
			res, err := r.Embed(context.Background(), nodes, ts)
			mode.Store(chaosOff)
			if err != nil {
				t.Fatal(err)
			}
			_ = res // may be partial or rescued by failover; both fine

			waitFor(t, 2*time.Second, func() bool {
				return r.Stats().Shards[vid].Restarts > 0 && !r.shards[vid].crashed.Load()
			})
			st := r.Stats()
			loads := st.SnapshotLoads - loadsBefore
			if corrupt {
				if loads != 0 {
					t.Fatalf("corrupt snapshot was loaded (%d loads)", loads)
				}
				if st.SnapshotErrors == 0 {
					t.Fatal("corrupt snapshot not counted")
				}
			} else if loads != 1 {
				t.Fatalf("snapshot loads = %d, want 1", loads)
			}

			// Either way the rebuilt shard serves bitwise-correct rows.
			waitFor(t, 2*time.Second, func() bool {
				res, err := r.Embed(context.Background(), nodes, ts)
				return err == nil && !res.Partial
			})
			res, err = r.Embed(context.Background(), nodes, ts)
			if err != nil || res.Partial {
				t.Fatalf("post-restart embed: err=%v partial=%v", err, res != nil && res.Partial)
			}
			for i := range want {
				if res.Slab[i] != want[i] {
					t.Fatalf("post-restart slab[%d] differs from reference", i)
				}
			}
		})
	}
}

// TestChaosIngestDuringRestart pins that a restart misses no write:
// edges the graph takes while a shard is down are in the graph its
// rebuilt core samples, so post-restart rows reflect the full stream.
func TestChaosIngestDuringRestart(t *testing.T) {
	m := testModel(t)
	edges := testEdges(40)
	nodes, ts := embedQuery()

	var mode, victim atomic.Int32
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards: 3,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode}
		},
	})
	victim.Store(int32(r.Owner(nodes[0])))
	vid := int(victim.Load())

	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}

	// Crash the victim, then ingest edges while it is (possibly still)
	// down.
	mode.Store(chaosPanic)
	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	mode.Store(chaosOff)
	extra := []graph.Edge{
		{Src: nodes[0], Dst: 5, Time: 850},
		{Src: 3, Dst: nodes[0], Time: 950},
	}
	for _, e := range extra {
		ingest(t, r, e)
	}

	waitFor(t, 2*time.Second, func() bool {
		return r.Stats().Shards[vid].Restarts > 0 && !r.shards[vid].crashed.Load()
	})
	waitFor(t, 2*time.Second, func() bool {
		res, err := r.Embed(context.Background(), nodes, ts)
		return err == nil && !res.Partial
	})

	all := append(append([]graph.Edge(nil), edges...), extra...)
	want := referenceSlab(t, m, all, nodes, ts)
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("embed: err=%v partial=%v", err, res.Partial)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("slab[%d] = %v, want %v (restarted shard missed an ingested edge)", i, res.Slab[i], want[i])
		}
	}
}

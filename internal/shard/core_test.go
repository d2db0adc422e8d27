package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
)

// TestCorePassPanicIsErrPassPanicked: an engine panic inside a core's
// pass comes back as batcher.ErrPassPanicked — the error a Shard
// escalates to its supervisor — and the core keeps answering bitwise
// afterwards. Cancelling a caller mid-pass is pinned where a caller
// must not wait out a pass, at Shard.call
// (TestRouterLegCancelableMidPass).
func TestCorePassPanicIsErrPassPanicked(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	var armed atomic.Bool
	c := NewCore(m, seededDynamic(t, edges), core.OptAll(), Config{
		WrapEmbedder: func(_ int, e core.Embedder) core.Embedder {
			return &panicEmbedder{Embedder: e, armed: armed.Load}
		},
	})
	armed.Store(true)
	_, _, err := c.EmbedRows(context.Background(), nodes, ts)
	armed.Store(false)
	if !errors.Is(err, batcher.ErrPassPanicked) {
		t.Fatalf("engine panic: err = %v, want batcher.ErrPassPanicked", err)
	}

	slab, degraded, err := c.EmbedRows(context.Background(), nodes, ts)
	if err != nil || degraded != nil {
		t.Fatalf("after the panic: err=%v degraded=%v", err, degraded)
	}
	requireSlabEqual(t, "after the panic", slab, want)
}

// TestRouterLegCancelableMidPass: a leg whose context ends while its
// pass runs inside the engine returns at once with the context's error,
// not when the engine finishes — the pass may be the batcher's idle
// pass, which runs inline on whoever called it. A cancellation books
// nothing against the shard, and the shard answers afterwards.
func TestRouterLegCancelableMidPass(t *testing.T) {
	m := testModel(t)
	nodes, ts := embedQuery()
	var stall atomic.Bool
	entered := make(chan struct{}, 1)
	r := newTestRouter(t, m, testEdges(60), Config{
		Shards: 2,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &slowEmbedder{Embedder: e, delay: func() time.Duration {
				if id != 0 || !stall.Swap(false) {
					return 0
				}
				entered <- struct{}{}
				return 2 * time.Second
			}}
		},
	})
	s := r.shards[0]
	stall.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.call(ctx, nodes, ts)
		done <- err
	}()
	<-entered // the pass is inside the engine
	start := time.Now()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) || time.Since(start) > time.Second {
		t.Fatalf("cancelled mid-pass: err = %v after %v, want context.Canceled at once", err, time.Since(start))
	}
	if _, err := s.call(context.Background(), nodes, ts); err != nil {
		t.Fatalf("after a cancelled leg: %v", err)
	}
	if st := r.Stats().Shards[0]; st.Errors != 0 || st.Timeouts != 0 || st.Panics != 0 || st.Crashed {
		t.Fatalf("a cancelled leg was booked against the shard: %+v", st)
	}
}

// TestRouterPanicAfterLegDeadlineCrashesShard: a pass that panics
// after its leg gave up at the deadline has still poisoned its core.
// The leg books a timeout; the pass's panic is counted once and the
// supervisor rebuilds the shard, which then answers bitwise.
func TestRouterPanicAfterLegDeadlineCrashesShard(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)
	var armed atomic.Bool
	r := newTestRouter(t, m, edges, Config{
		Shards: 2,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			// Stall 300 ms, then panic, once, on shard 0.
			late := &panicEmbedder{Embedder: e, armed: func() bool { return id == 0 && armed.Swap(false) }}
			return &slowEmbedder{Embedder: late, delay: func() time.Duration {
				if id == 0 && armed.Load() {
					return 300 * time.Millisecond
				}
				return 0
			}}
		},
	})
	s := r.shards[0]
	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := s.call(ctx, nodes, ts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leg past its deadline: err = %v, want context.DeadlineExceeded", err)
	}
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Shards[0].Restarts > 0 })
	r.WaitRestarts()
	if st := r.Stats().Shards[0]; st.Panics != 1 || st.Restarts != 1 || st.Timeouts != 1 || st.Crashed {
		t.Fatalf("shard 0 after a pass panicked past its leg's deadline: %+v; want one timeout, one panic, one restart, up", st)
	}
	slab, err := s.call(context.Background(), nodes, ts)
	if err != nil {
		t.Fatalf("after the restart: %v", err)
	}
	requireSlabEqual(t, "after the restart", slab, want)
}

// TestRouterSetBatchingCoversRestartedCores: every core the pool has
// batches, and so does every core the supervisor builds later.
func TestRouterSetBatchingCoversRestartedCores(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	var victim atomic.Int64 // the shard that panics; -1 = none
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards: 3,
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &panicEmbedder{Embedder: e, armed: func() bool { return victim.Load() == int64(id) }}
		},
	})
	crashed := r.Owner(nodes[0])
	before := r.Batchers()[crashed]
	victim.Store(int64(crashed))
	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	victim.Store(-1)
	r.WaitRestarts()
	if n := r.Stats().Shards[crashed].Restarts; n != 1 {
		t.Fatalf("shard %d restarts = %d, want 1", crashed, n)
	}
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("after restart: err=%v partial=%v", err, res != nil && res.Partial)
	}
	requireSlabEqual(t, "after restart", res.Slab, want)
	after := r.Batchers()[crashed]
	if after == before || after.Stats().Enqueued == 0 {
		t.Fatalf("the rebuilt core's batcher (%p, was %p) served nothing: %+v", after, before, after.Stats())
	}
}

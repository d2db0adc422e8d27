package shard

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
)

// TestCorePassPanicIsErrPassPanicked: an engine panic inside a core's
// pass comes back as batcher.ErrPassPanicked, takes the core down once —
// its OnDown hook runs one time — and the core is never called again:
// an embed is ErrShardDown without reaching the engine, an edge
// invalidates nothing, and a save is refused. Cancelling a caller
// mid-pass is pinned where a caller must not wait out a pass, at
// Shard.call (TestRouterLegCancelableMidPass).
func TestCorePassPanicIsErrPassPanicked(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()

	var armed atomic.Bool
	var calls, downs atomic.Int64
	c := NewCore(m, seededDynamic(t, edges), core.OptAll(), Config{
		CacheFile: filepath.Join(t.TempDir(), "cache.tgc"),
		WrapEmbedder: func(_ int, e core.Embedder) core.Embedder {
			return &panicEmbedder{Embedder: e, armed: func() bool {
				calls.Add(1)
				return armed.Load()
			}}
		},
	})
	c.OnDown(func() { downs.Add(1) })
	if _, _, err := c.EmbedRows(context.Background(), nodes, ts); err != nil || c.Up() != 1 {
		t.Fatalf("healthy core: err = %v, up = %d", err, c.Up())
	}
	armed.Store(true)
	_, _, err := c.EmbedRows(context.Background(), nodes, ts)
	if !errors.Is(err, batcher.ErrPassPanicked) {
		t.Fatalf("engine panic: err = %v, want batcher.ErrPassPanicked", err)
	}
	if c.Up() != 0 || downs.Load() != 1 {
		t.Fatalf("after the panic: up = %d, OnDown ran %d times; want 0 and 1", c.Up(), downs.Load())
	}
	armed.Store(false)

	before := calls.Load()
	for range 3 {
		if _, _, err := c.EmbedRows(context.Background(), nodes, ts); !errors.Is(err, ErrShardDown) {
			t.Fatalf("embed on a down core: err = %v, want ErrShardDown", err)
		}
	}
	if n := calls.Load() - before; n != 0 {
		t.Fatalf("the down core's engine was called %d more times", n)
	}
	if n := c.Apply(graph.Edge{Src: nodes[0], Dst: 2, Time: 5000}, graph.IngestAppended); n != 0 {
		t.Fatalf("a down core invalidated %d rows", n)
	}
	if err := c.SaveSnapshot(); !errors.Is(err, ErrShardDown) {
		t.Fatalf("save on a down core: err = %v, want ErrShardDown", err)
	}
	if downs.Load() != 1 {
		t.Fatalf("OnDown ran %d times, want 1", downs.Load())
	}
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

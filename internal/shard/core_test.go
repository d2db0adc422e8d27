package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/tensor"
)

// gateEmbedder holds every pass at the gate until it is opened — a pass
// that is running when its caller gives up.
type gateEmbedder struct {
	core.Embedder
	entered chan struct{}
	open    chan struct{}
}

func (g *gateEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	g.entered <- struct{}{}
	<-g.open
	return g.Embedder.EmbedWith(ar, nodes, ts)
}

// TestCoreDirectPassCancelAndPanic pins the two things the unbatched
// pass of a Core owes its caller, sharded or not: a caller whose context
// ends mid-pass gets its error at once rather than when the engine
// finishes, and an engine panic comes back as an error that isPanic
// recognises — the core keeps answering afterwards.
func TestCoreDirectPassCancelAndPanic(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	c := NewCore(m, seededDynamic(t, edges), core.OptAll(), Config{})
	gate := &gateEmbedder{Embedder: c.emb, entered: make(chan struct{}, 1), open: make(chan struct{})}
	var armed atomic.Bool
	c.emb = &panicEmbedder{Embedder: gate, armed: armed.Load}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.EmbedRows(ctx, nodes, ts)
		done <- err
	}()
	<-gate.entered // the pass is inside the engine
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled mid-pass: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EmbedRows did not return while its pass was held: the caller is not cancelable")
	}
	close(gate.open) // the abandoned pass finishes in the background

	armed.Store(true)
	_, _, err := c.EmbedRows(context.Background(), nodes, ts)
	armed.Store(false)
	if err == nil || !isPanic(err) {
		t.Fatalf("engine panic: err = %v, want one isPanic recognises", err)
	}

	slab, degraded, err := c.EmbedRows(context.Background(), nodes, ts)
	if err != nil || degraded != nil {
		t.Fatalf("after cancel and panic: err=%v degraded=%v", err, degraded)
	}
	for i := range want {
		if slab[i] != want[i] {
			t.Fatalf("slab[%d] = %v, want %v", i, slab[i], want[i])
		}
	}
}

// TestRouterSetBatchingCoversRestartedCores: Config.Batching batches
// every core the pool has and every core the supervisor builds later.
func TestRouterSetBatchingCoversRestartedCores(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	want := referenceSlab(t, m, edges, nodes, ts)

	var victim atomic.Int64 // the shard that panics; -1 = none
	victim.Store(-1)
	r := newTestRouter(t, m, edges, Config{
		Shards:   3,
		Batching: true,
		Batch:    batcher.Config{Window: time.Millisecond, MaxBatch: 64},
		WrapEmbedder: func(id int, e core.Embedder) core.Embedder {
			return &panicEmbedder{Embedder: e, armed: func() bool { return victim.Load() == int64(id) }}
		},
	})
	if n := len(r.Batchers()); n != 3 {
		t.Fatalf("%d batchers with Config.Batching, want one per shard", n)
	}

	crashed := r.Owner(nodes[0])
	victim.Store(int64(crashed))
	if _, err := r.Embed(context.Background(), nodes, ts); err != nil {
		t.Fatal(err)
	}
	victim.Store(-1)
	r.WaitRestarts()
	if n := r.Stats().Shards[crashed].Restarts; n != 1 {
		t.Fatalf("shard %d restarts = %d, want 1", crashed, n)
	}
	if n := len(r.Batchers()); n != 3 {
		t.Fatalf("%d batchers after the restart, want 3: the rebuilt core lost its batcher", n)
	}
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil || res.Partial {
		t.Fatalf("after restart: err=%v partial=%v", err, res != nil && res.Partial)
	}
	for i := range want {
		if res.Slab[i] != want[i] {
			t.Fatalf("slab[%d] = %v, want %v", i, res.Slab[i], want[i])
		}
	}
}

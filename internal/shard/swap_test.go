package shard

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// swapPool is the pool swap as serving drives it: parse the params
// file once with nothing locked, then commit.
func swapPool(r *Router, path string, version uint64) error {
	return swapPoolFS(r, checkpoint.OS{}, path, version)
}

// swapPoolFS is swapPool reading the params file through fsys.
func swapPoolFS(r *Router, fsys checkpoint.FS, path string, version uint64) error {
	sp, err := r.model.ParseParamsFS(fsys, path)
	if err != nil {
		return err
	}
	r.CommitSwap(sp, version)
	return nil
}

// testModelSeed is testModel with a caller-chosen parameter seed, so a
// second seed stands in for a newly fine-tuned version of the same
// architecture.
func testModelSeed(t *testing.T, seed uint64) *tgat.Model {
	t.Helper()
	const maxEdges = 4096
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, testNodes+1, testDim)
	edgeFeat := tensor.Randn(r, maxEdges+1, testDim)
	for j := 0; j < testDim; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: testDim, EdgeDim: testDim, TimeDim: testDim, NumNeighbors: 4, Seed: seed}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// redirectFS serves Open(from) from a different file — the harness for
// "the published params checkpoint reads back corrupt".
type redirectFS struct {
	checkpoint.FS
	from, to string
}

func (r redirectFS) Open(name string) (io.ReadCloser, error) {
	if name == r.from {
		name = r.to
	}
	return r.FS.Open(name)
}

func poolSlab(t *testing.T, r *Router, nodes []int32, ts []float64) []float32 {
	t.Helper()
	res, err := r.Embed(context.Background(), nodes, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("degraded rows %v", res.Degraded)
	}
	return res.Slab
}

func requireSlabEqual(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slab[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestRouterSwapAllOrNothing pins the parse-then-commit pool swap:
// with the params checkpoint reading back bit-flipped, the parse fails
// and NOTHING changes anywhere — not the pool version, not the shared
// tensors, not a single served row. Clearing the fault lets the
// identical call commit everywhere at once.
func TestRouterSwapAllOrNothing(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	wantOld := referenceSlab(t, m, edges, nodes, ts)

	// Publish v1 params and a bit-flipped copy of the same file.
	dir := t.TempDir()
	good := filepath.Join(dir, "params-1.tgp")
	bad := filepath.Join(dir, "params-1-corrupt.tgp")
	if err := testModelSeed(t, 9).SaveParamsFS(checkpoint.OS{}, good); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the tensor payload, past the
	// envelope header.
	if err := faultfs.FlipBit(bad, int64(len(b))/2*8+3); err != nil {
		t.Fatal(err)
	}

	r := newTestRouter(t, m, edges, Config{Shards: 3})
	requireSlabEqual(t, "pre-swap", poolSlab(t, r, nodes, ts), wantOld)

	if err := swapPoolFS(r, redirectFS{FS: checkpoint.OS{}, from: good, to: bad}, good, 1); err == nil {
		t.Fatal("swap of a corrupt checkpoint committed")
	}
	if v := r.ParamsVersion(); v != 0 {
		t.Fatalf("version advanced to %d on a failed swap", v)
	}
	for _, s := range r.shards {
		if ev := s.currentCore().eng.ParamsVersion(); ev != 0 {
			t.Fatalf("shard %d engine at version %d after rollback", s.id, ev)
		}
	}
	requireSlabEqual(t, "after rolled-back swap", poolSlab(t, r, nodes, ts), wantOld)

	// Same call with the fault cleared: commits pool-wide.
	if err := swapPool(r, good, 1); err != nil {
		t.Fatal(err)
	}
	if v := r.ParamsVersion(); v != 1 {
		t.Fatalf("version %d after commit", v)
	}
	wantNew := referenceSlab(t, testModelSeed(t, 9), edges, nodes, ts)
	requireSlabEqual(t, "post-swap", poolSlab(t, r, nodes, ts), wantNew)
}

// TestRestartAfterSwapServesCurrentVersion pins satellite 3: a shard
// rebuilt by the supervisor AFTER a hot-swap must come back on the
// swapped (current) params version, not the boot-time one — the shared
// model already carries the new tensors, and the rebuilt engine's
// version stamp, packed weights, and caches must agree with them.
func TestRestartAfterSwapServesCurrentVersion(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()

	dir := t.TempDir()
	path := filepath.Join(dir, "params-5.tgp")
	if err := testModelSeed(t, 9).SaveParamsFS(checkpoint.OS{}, path); err != nil {
		t.Fatal(err)
	}

	r := newTestRouter(t, m, edges, Config{Shards: 3})
	poolSlab(t, r, nodes, ts) // warm
	if err := swapPool(r, path, 5); err != nil {
		t.Fatal(err)
	}

	victim := r.shards[0]
	r.crash(victim, errors.New("injected crash"))
	waitFor(t, 5*time.Second, func() bool {
		return victim.restarts.Load() > 0 && !victim.crashed.Load()
	})

	if ev := victim.currentCore().eng.ParamsVersion(); ev != 5 {
		t.Fatalf("rebuilt shard at version %d, pool at %d", ev, r.ParamsVersion())
	}
	wantNew := referenceSlab(t, testModelSeed(t, 9), edges, nodes, ts)
	requireSlabEqual(t, "after restart", poolSlab(t, r, nodes, ts), wantNew)
}

// TestRouterSwapDuringTraffic hammers the pool with embeds and ingest
// while swapping back and forth between two published versions, under
// the race detector: every gathered slab must be bitwise one version's
// rows — never a mix — and after the final swap the pool must converge
// exactly onto the final params.
func TestRouterSwapDuringTraffic(t *testing.T) {
	m := testModel(t)
	edges := testEdges(60)
	nodes, ts := embedQuery()
	wantA := referenceSlab(t, m, edges, nodes, ts)
	wantB := referenceSlab(t, testModelSeed(t, 9), edges, nodes, ts)

	dir := t.TempDir()
	pathA := filepath.Join(dir, "params-a.tgp")
	pathB := filepath.Join(dir, "params-b.tgp")
	if err := testModel(t).SaveParamsFS(checkpoint.OS{}, pathA); err != nil {
		t.Fatal(err)
	}
	if err := testModelSeed(t, 9).SaveParamsFS(checkpoint.OS{}, pathB); err != nil {
		t.Fatal(err)
	}

	r := newTestRouter(t, m, edges, Config{Shards: 3})

	stop := make(chan struct{})
	errc := make(chan error, 8)
	// Embed hammers: every response must be wholly version A or wholly
	// version B.
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				res, err := r.Embed(context.Background(), nodes, ts)
				if err != nil || res.Partial {
					errc <- err
					return
				}
				matchA := slabEqual(res.Slab, wantA)
				matchB := slabEqual(res.Slab, wantB)
				if !matchA && !matchB {
					errc <- errors.New("slab matches neither version: mixed-version rows")
					return
				}
			}
		}()
	}
	// Ingest hammer: edges strictly after the query times, so expected
	// rows at t<=1000 stay pinned while invalidation churns.
	go func() {
		tm := 2000.0
		for {
			select {
			case <-stop:
				errc <- nil
				return
			default:
			}
			tm += 10
			ingest(t, r, graph.Edge{Src: 2, Dst: 3, Time: tm})
		}
	}()

	version := uint64(0)
	for i := 0; i < 12; i++ {
		version++
		p := pathB
		if version%2 == 0 {
			p = pathA
		}
		if err := swapPool(r, p, version); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	for i := 0; i < 5; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	// 12 swaps: final version even → params A... the parity rule above
	// says even versions load pathA.
	requireSlabEqual(t, "converged", poolSlab(t, r, nodes, ts), wantA)
	if err := swapPool(r, pathB, version+1); err != nil {
		t.Fatal(err)
	}
	requireSlabEqual(t, "final", poolSlab(t, r, nodes, ts), wantB)
}

func slabEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ParamsVersion returns the model version the pool currently serves.
func (r *Router) ParamsVersion() uint64 { return r.model.Version() }

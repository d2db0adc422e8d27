package shard_test

// The chaos tests crash shards of a pool that a serve.Server runs: a
// core that panics goes down for good, the router routes around it,
// and the server replaces the whole version, as a params swap does.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/serve"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// chaosEmbedder injects faults into exactly one failure domain: while
// mode is chaosPanic, passes on the target shard panic, and each panic
// is counted. Every other shard computes normally.
type chaosEmbedder struct {
	core.Embedder
	shard    int
	target   *atomic.Int32 // which shard id misbehaves (set after ring build)
	mode     *atomic.Int32
	panicked *atomic.Int64
}

const (
	chaosOff   int32 = 0
	chaosPanic int32 = 1
)

func (c *chaosEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if int32(c.shard) == c.target.Load() && c.mode.Load() == chaosPanic {
		c.panicked.Add(1)
		panic(fmt.Sprintf("chaos: injected panic on shard %d", c.shard))
	}
	return c.Embedder.EmbedWith(ar, nodes, ts)
}

// chaosServer serves a pool over a graph seeded with edges, configured
// by set, and returns the server and its URL. Both close with the test.
func chaosServer(t *testing.T, m *tgat.Model, edges []graph.Edge, set func(*serve.Config)) (*serve.Server, string) {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.Limits = serve.Limits{}
	set(&cfg)
	s, err := serve.NewFromConfig(m, shard.SeededDynamic(t, edges), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

// embedReply is a /v1/embed body; a degraded row is null.
type embedReply struct {
	Embeddings [][]float32 `json:"embeddings"`
	Partial    bool        `json:"partial"`
	Degraded   []int       `json:"degraded"`
}

// embed posts the targets to /v1/embed and returns the status and, for
// a 200 or 206, the decoded body.
func embed(ctx context.Context, url string, nodes []int32, ts []float64) (int, embedReply, error) {
	var rep embedReply
	body, err := json.Marshal(map[string]any{"nodes": nodes, "times": ts})
	if err != nil {
		return 0, rep, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/embed", bytes.NewReader(body))
	if err != nil {
		return 0, rep, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, rep, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusPartialContent {
		err = json.NewDecoder(resp.Body).Decode(&rep)
	}
	return resp.StatusCode, rep, err
}

// matches reports whether every row of rep is want's or, listed in
// Degraded, null.
func (rep embedReply) matches(want []float32) bool {
	if len(rep.Embeddings) == 0 {
		return false
	}
	d := len(want) / len(rep.Embeddings)
	for i, row := range rep.Embeddings {
		if slices.Contains(rep.Degraded, i) {
			if row != nil {
				return false
			}
		} else if !slices.Equal(row, want[i*d:(i+1)*d]) {
			return false
		}
	}
	return true
}

// requireClean embeds the targets and fails the test unless the answer
// is a 200 whose every row is want's.
func requireClean(t *testing.T, what, url string, nodes []int32, ts []float64, want []float32) {
	t.Helper()
	code, rep, err := embed(context.Background(), url, nodes, ts)
	if err != nil || code != http.StatusOK || !rep.matches(want) {
		t.Fatalf("%s: code %d err %v partial %v: want a 200 bitwise the unsharded reference", what, code, err, rep.Partial)
	}
}

// restarts reads the server's restart count from /v1/stats.
func restarts(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Restarts int64 `json:"restarts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Restarts
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

// TestChaosShardPanicUnderLoad is the headline robustness test: under
// concurrent deadline-bounded load, one shard's engine panics
// repeatedly — each version the server publishes loses the same shard
// again until the fault clears. The run must show (a) every response a
// 200 or 206 (or a 504 at the deadline) whose non-degraded rows are
// bitwise an unsharded single-engine run's, (b) no request outliving
// its deadline by more than scheduling slack, and (c) the server
// replacing the version, after which every shard is up, the victim's
// rebuilt core — and its batcher — serves its own rows again, bitwise.
func TestChaosShardPanicUnderLoad(t *testing.T) {
	m := shard.ModelForTest(t)
	edges := shard.EdgesForTest(60)
	nodes, ts := shard.EmbedQuery()
	want := shard.ReferenceSlab(t, m, edges, nodes, ts)

	const (
		workers    = 8
		perWorker  = 30
		reqTimeout = 500 * time.Millisecond
	)
	var mode, victim atomic.Int32
	var panicked atomic.Int64
	victim.Store(-1)
	s, url := chaosServer(t, m, edges, func(c *serve.Config) {
		c.Shards = 4
		c.Limits.Timeout = reqTimeout
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode, panicked: &panicked}
		}
	})
	// Make the primary of the first queried node the victim so the
	// fault is guaranteed to sit on the request path. The ring is a
	// function of the shard count, so every version puts it there.
	vid := s.Router().Owner(nodes[0])
	victim.Store(int32(vid))
	bootBatcher := s.Router().Batchers()[vid]

	var (
		wg        sync.WaitGroup
		hardFails atomic.Int64
		overruns  atomic.Int64
		misrows   atomic.Int64
		clean     atomic.Int64
		completed atomic.Int64
	)
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
				start := time.Now()
				code, rep, err := embed(context.Background(), url, nodes, ts)
				if time.Since(start) > reqTimeout+300*time.Millisecond {
					overruns.Add(1)
				}
				completed.Add(1)
				switch {
				case err != nil:
					hardFails.Add(1)
				case code == http.StatusGatewayTimeout:
				case code != http.StatusOK && code != http.StatusPartialContent:
					hardFails.Add(1) // failed for a non-deadline reason
				case !rep.matches(want):
					misrows.Add(1)
				case code == http.StatusOK:
					clean.Add(1)
				}
			}
		}()
	}

	// Mid-load: arm the panic once a quarter of the workload has flowed
	// (progress-synchronized, not wall-clock — the workload may be
	// arbitrarily fast), keep it armed until the victim demonstrably
	// panicked, then disarm and let the server bring it back while the
	// remaining load keeps flowing.
	waitFor(t, 10*time.Second, func() bool { return completed.Load() >= total/4 })
	mode.Store(chaosPanic)
	close(armed)
	waitFor(t, 10*time.Second, func() bool { return panicked.Load() > 0 })
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

	// The version that lost the victim last may still be being replaced
	// when the load ends: wait until the serving version has every
	// shard up. With the fault cleared nothing takes one down again.
	waitFor(t, 5*time.Second, func() bool { return restarts(t, url) > 0 && s.Router().Up() == 4 })
	r := s.Router()
	calls := r.Stats().Shards[vid].Calls
	requireClean(t, "after the restart", url, nodes, ts, want)
	if r.Stats().Shards[vid].Calls == calls {
		t.Fatal("the restarted victim served none of its own rows")
	}
	if b := r.Batchers()[vid]; b == bootBatcher || b.Stats().Enqueued == 0 {
		t.Fatalf("the rebuilt victim's batcher (%p, boot %p) served nothing: %+v", b, bootBatcher, b.Stats())
	}
}

// TestChaosRestartFromSnapshot pins the restart-from-snapshot leg: the
// version that replaces one with a shard down warms from the snapshot
// directory — the live shards' rows saved by the restart itself, the
// victim's from its last save, written through a fault-injecting FS to
// prove the envelope survives — and a bit-flipped snapshot of the
// victim is detected and demoted to a cold start. The replacement
// serves bitwise-correct rows either way.
func TestChaosRestartFromSnapshot(t *testing.T) {
	m := shard.ModelForTest(t)
	edges := shard.EdgesForTest(50)
	nodes, ts := shard.EmbedQuery()
	want := shard.ReferenceSlab(t, m, edges, nodes, ts)
	for name, corrupt := range map[string]bool{"warm": false, "corrupt-cold": true} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var mode, victim atomic.Int32
			var panicked atomic.Int64
			victim.Store(-1)
			s, url := chaosServer(t, m, edges, func(c *serve.Config) {
				c.Shards = 3
				c.CacheFile = dir
				c.FS = faultfs.NewFS()
				c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
					return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode, panicked: &panicked}
				}
			})
			vid := s.Router().Owner(nodes[0])
			victim.Store(int32(vid))

			requireClean(t, "warm-up", url, nodes, ts, want)
			if err := s.SaveSnapshot(); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				if err := faultfs.FlipBit(filepath.Join(dir, fmt.Sprintf("shard-%d.tgc", vid)), 120); err != nil {
					t.Fatal(err)
				}
			}

			// Kill the victim once: its rows fail over or degrade.
			mode.Store(chaosPanic)
			code, rep, err := embed(context.Background(), url, nodes, ts)
			mode.Store(chaosOff)
			if err != nil || (code != http.StatusOK && code != http.StatusPartialContent) || !rep.matches(want) {
				t.Fatalf("embed as the victim panics: code %d err %v", code, err)
			}
			if panicked.Load() != 1 {
				t.Fatalf("the victim panicked %d times, want 1", panicked.Load())
			}

			waitFor(t, 5*time.Second, func() bool { return restarts(t, url) > 0 })
			if n := restarts(t, url); n != 1 {
				t.Fatalf("restarts = %d, want 1", n)
			}
			st := s.Router().Stats()
			if corrupt {
				if st.SnapshotLoads != 2 || st.SnapshotErrors != 1 {
					t.Fatalf("corrupt victim snapshot: %d loads, %d errors; want 2 and 1", st.SnapshotLoads, st.SnapshotErrors)
				}
			} else if st.SnapshotLoads != 3 || st.SnapshotErrors != 0 {
				t.Fatalf("snapshot loads = %d, errors = %d; want 3 and 0", st.SnapshotLoads, st.SnapshotErrors)
			}
			requireClean(t, "after the restart", url, nodes, ts, want)
		})
	}
}

// TestChaosIngestDuringRestart pins that a restart misses no write:
// edges the graph takes while a shard is down and its replacement is
// still being built are in the graph the replacement samples, so rows
// after the restart reflect the full stream.
func TestChaosIngestDuringRestart(t *testing.T) {
	m := shard.ModelForTest(t)
	edges := shard.EdgesForTest(40)
	nodes, ts := shard.EmbedQuery()

	var mode, victim atomic.Int32
	var panicked atomic.Int64
	var holdBuild atomic.Bool
	release := make(chan struct{})
	releaseBuild := sync.OnceFunc(func() { close(release) })
	victim.Store(-1)
	s, url := chaosServer(t, m, edges, func(c *serve.Config) {
		c.Shards = 3
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			if holdBuild.Load() {
				<-release
			}
			return &chaosEmbedder{Embedder: e, shard: id, target: &victim, mode: &mode, panicked: &panicked}
		}
	})
	t.Cleanup(releaseBuild) // before the server's Close, which waits out the restart
	victim.Store(int32(s.Router().Owner(nodes[0])))
	requireClean(t, "warm-up", url, nodes, ts, shard.ReferenceSlab(t, m, edges, nodes, ts))

	// Crash the victim, then ingest while its replacement's build waits.
	holdBuild.Store(true)
	mode.Store(chaosPanic)
	if code, _, err := embed(context.Background(), url, nodes, ts); err != nil || (code != http.StatusOK && code != http.StatusPartialContent) {
		t.Fatalf("embed as the victim panics: code %d err %v", code, err)
	}
	mode.Store(chaosOff)
	extra := []graph.Edge{
		{Src: nodes[0], Dst: 5, Time: 850},
		{Src: 3, Dst: nodes[0], Time: 950},
	}
	body, err := json.Marshal(map[string]any{"edges": extra})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest during the restart: %d", resp.StatusCode)
	}
	if n := restarts(t, url); n != 0 {
		t.Fatalf("restarts = %d before the replacement's build was released", n)
	}
	releaseBuild()

	waitFor(t, 5*time.Second, func() bool { return restarts(t, url) > 0 })
	all := append(slices.Clone(edges), extra...)
	requireClean(t, "after the restart", url, nodes, ts, shard.ReferenceSlab(t, m, all, nodes, ts))
}

// lateFault stalls shard 0's first pass once armed for 300 ms, then
// panics.
type lateFault struct {
	core.Embedder
	id    int
	armed *atomic.Bool
}

func (f lateFault) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	if f.id == 0 && f.armed.Swap(false) {
		time.Sleep(300 * time.Millisecond)
		panic("injected late fault")
	}
	return f.Embedder.EmbedWith(ar, nodes, ts)
}

// TestRouterPanicAfterLegDeadlineCrashesShard: a pass that panics
// after its leg gave up at the deadline has still taken its core down.
// The leg books a timeout; the pass's panic is counted once, and the
// server replaces the version, whose shards are all up and answer
// bitwise.
func TestRouterPanicAfterLegDeadlineCrashesShard(t *testing.T) {
	m := shard.ModelForTest(t)
	edges := shard.EdgesForTest(60)
	nodes, ts := shard.EmbedQuery()
	want := shard.ReferenceSlab(t, m, edges, nodes, ts)
	var armed atomic.Bool
	s, url := chaosServer(t, m, edges, func(c *serve.Config) {
		c.Shards = 2
		c.WrapEmbedder = func(id int, e core.Embedder) core.Embedder {
			return lateFault{Embedder: e, id: id, armed: &armed}
		}
	})
	boot := s.Router()
	if !slices.ContainsFunc(nodes, func(v int32) bool { return boot.Owner(v) == 0 }) {
		t.Fatal("fixture has no target on shard 0")
	}
	armed.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	boot.Embed(ctx, nodes, ts) // shard 0's leg gives up at its budget
	cancel()

	waitFor(t, 5*time.Second, func() bool { return restarts(t, url) > 0 && boot.Stats().Shards[0].Panics > 0 })
	if st := boot.Stats().Shards[0]; st.Panics != 1 || st.Timeouts != 1 || !st.Crashed {
		t.Fatalf("shard 0 after a pass panicked past its leg's deadline: %+v; want one timeout, one panic, down", st)
	}
	r := s.Router()
	if r == boot || r.Up() != 2 {
		t.Fatalf("the replacement: same router %v, %d shards up; want a new one with 2", r == boot, r.Up())
	}
	requireClean(t, "after the restart", url, nodes, ts, want)
	if r.Stats().Shards[0].Calls == 0 {
		t.Fatal("the rebuilt shard 0 served no leg")
	}
	if n := restarts(t, url); n != 1 {
		t.Fatalf("restarts = %d, want 1", n)
	}
}

package batcher

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

const fakeDim = 4

// fakeEmbedder produces deterministic rows from (node, ts) and, when
// gated, blocks each EmbedWith call until the test sends a token —
// letting tests hold a pass "executing" while they drive the queue.
type fakeEmbedder struct {
	gate chan struct{}

	mu      sync.Mutex
	calls   [][]int32 // node list of each pass, in call order
	panicOn bool
}

func fakeRow(node int32, t float64, j int) float32 {
	return float32(node)*100 + float32(t) + float32(j)
}

func (f *fakeEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	f.mu.Lock()
	f.calls = append(f.calls, append([]int32(nil), nodes...))
	doPanic := f.panicOn
	f.mu.Unlock()
	if f.gate != nil {
		<-f.gate
	}
	if doPanic {
		panic("fake embedder failure")
	}
	out := ar.Tensor(len(nodes), fakeDim)
	for i := range nodes {
		for j := 0; j < fakeDim; j++ {
			out.Set(fakeRow(nodes[i], ts[i], j), i, j)
		}
	}
	return out
}

func (f *fakeEmbedder) Dim() int { return fakeDim }

func (f *fakeEmbedder) numCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func (f *fakeEmbedder) call(i int) []int32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[i]
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func checkSlab(t *testing.T, slab []float32, nodes []int32, ts []float64) {
	t.Helper()
	if len(slab) != len(nodes)*fakeDim {
		t.Fatalf("slab length %d, want %d", len(slab), len(nodes)*fakeDim)
	}
	for i := range nodes {
		for j := 0; j < fakeDim; j++ {
			if got, want := slab[i*fakeDim+j], fakeRow(nodes[i], ts[i], j); got != want {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestBatcherIdleFastPath(t *testing.T) {
	f := &fakeEmbedder{}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 64})
	slab, err := b.Embed(context.Background(), []int32{3, 7}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSlab(t, slab, []int32{3, 7}, []float64{1, 2})
	s := b.Stats()
	if s.Batches != 1 || s.FlushIdle != 1 || s.FlushSize != 0 || s.FlushWindow != 0 {
		t.Fatalf("stats %+v: idle request must flush immediately, once", s)
	}
	if b.Occupancy().Sum() != 2 {
		t.Fatalf("occupancy sum %d, want 2", b.Occupancy().Sum())
	}
}

func TestBatcherDuplicateTargetsWithinRequest(t *testing.T) {
	f := &fakeEmbedder{}
	b := New(f, fakeDim, Config{})
	slab, err := b.Embed(context.Background(), []int32{5, 5, 9}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSlab(t, slab, []int32{5, 5, 9}, []float64{1, 1, 1})
	if got := f.call(0); len(got) != 2 {
		t.Fatalf("fused pass saw %v, want the 2 unique targets", got)
	}
	s := b.Stats()
	if s.Enqueued != 3 || s.Coalesced != 1 {
		t.Fatalf("stats %+v: duplicate within a request must coalesce", s)
	}
}

func TestBatcherSizeTrigger(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 4})
	var wg sync.WaitGroup
	embed := func(node int32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), []int32{node}, []float64{1})
			if err != nil {
				t.Error(err)
				return
			}
			checkSlab(t, slab, []int32{node}, []float64{1})
		}()
	}
	embed(1) // idle flush; blocks inside the fake
	waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
	for n := int32(2); n <= 5; n++ {
		embed(n) // queues behind the executing pass
	}
	// The 4th queued target hits MaxBatch and flushes while pass 1 is
	// still executing.
	waitUntil(t, "size-triggered pass", func() bool { return f.numCalls() == 2 })
	if got := f.call(1); len(got) != 4 {
		t.Fatalf("size-triggered pass had %d targets, want 4", len(got))
	}
	f.gate <- struct{}{}
	f.gate <- struct{}{}
	wg.Wait()
	s := b.Stats()
	if s.FlushSize != 1 || s.FlushIdle != 1 || s.Batches != 2 {
		t.Fatalf("stats %+v: want one idle and one size flush", s)
	}
}

func TestBatcherWindowTrigger(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: 10 * time.Millisecond, MaxBatch: 1024})
	var wg sync.WaitGroup
	embed := func(node int32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Embed(context.Background(), []int32{node}, []float64{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	embed(1)
	waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
	embed(2)
	embed(3)
	// Far below MaxBatch: only the window timer can flush these two.
	waitUntil(t, "window-triggered pass", func() bool { return f.numCalls() == 2 })
	if got := f.call(1); len(got) != 2 {
		t.Fatalf("window pass had %d targets, want 2", len(got))
	}
	f.gate <- struct{}{}
	f.gate <- struct{}{}
	wg.Wait()
	if s := b.Stats(); s.FlushWindow != 1 {
		t.Fatalf("stats %+v: want one window flush", s)
	}
}

func TestBatcherDrainAfterPass(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	// Window 0: queued work can only flush via size or drain.
	b := New(f, fakeDim, Config{Window: 0, MaxBatch: 1024})
	var wg sync.WaitGroup
	embed := func(node int32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Embed(context.Background(), []int32{node}, []float64{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	embed(1)
	waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
	embed(2)
	embed(3)
	embed(4)
	waitUntil(t, "queue filled", func() bool { p, _ := b.InFlight(); return p == 3 })
	f.gate <- struct{}{} // finish pass 1; completion must drain the queue
	waitUntil(t, "drain pass", func() bool { return f.numCalls() == 2 })
	if got := f.call(1); len(got) != 3 {
		t.Fatalf("drain pass had %d targets, want 3", len(got))
	}
	f.gate <- struct{}{}
	wg.Wait()
	if s := b.Stats(); s.FlushDrain != 1 {
		t.Fatalf("stats %+v: want one drain flush", s)
	}
}

func TestBatcherSingleFlight(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 1024})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]float32, waiters+1)
	for i := 0; i <= waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), []int32{42}, []float64{7})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = slab
		}()
		if i == 0 {
			waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
		}
	}
	// Everyone requested the same (node, ts): all later arrivals must
	// attach to the executing flight, never queue a duplicate slot.
	waitUntil(t, "all waiters coalesced", func() bool { return b.Stats().Coalesced == waiters })
	if p, _ := b.InFlight(); p != 0 {
		t.Fatalf("%d targets pending; duplicates of an executing flight must not queue", p)
	}
	f.gate <- struct{}{}
	wg.Wait()
	if f.numCalls() != 1 {
		t.Fatalf("%d passes for one key, want exactly 1 (single-flight)", f.numCalls())
	}
	for i, slab := range results {
		checkSlab(t, slab, []int32{42}, []float64{7})
		_ = i
	}
	s := b.Stats()
	if s.Enqueued != waiters+1 || s.Coalesced != waiters || s.Batches != 1 {
		t.Fatalf("stats %+v", s)
	}
	if r := s.CoalesceRatio(); r <= 0.9 {
		t.Fatalf("coalesce ratio %v", r)
	}
}

func TestBatcherCancellationLeavesNoStuckWaiters(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 1024})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Embed(context.Background(), []int32{1}, []float64{1}); err != nil {
			t.Error(err)
		}
	}()
	waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })

	// A waiter on the executing flight whose context is cancelled must
	// return promptly even though the pass is still blocked.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := b.Embed(ctx, []int32{1}, []float64{1})
		cancelled <- err
	}()
	waitUntil(t, "cancelled waiter attached", func() bool { return b.Stats().Coalesced == 1 })
	cancel()
	select {
	case err := <-cancelled:
		if err != context.Canceled {
			t.Fatalf("cancelled waiter returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter stuck")
	}

	// A patient waiter on the same flight still gets the result.
	patient := make(chan []float32, 1)
	go func() {
		slab, err := b.Embed(context.Background(), []int32{1}, []float64{1})
		if err != nil {
			t.Error(err)
		}
		patient <- slab
	}()
	waitUntil(t, "patient waiter attached", func() bool { return b.Stats().Coalesced == 2 })
	f.gate <- struct{}{}
	select {
	case slab := <-patient:
		checkSlab(t, slab, []int32{1}, []float64{1})
	case <-time.After(2 * time.Second):
		t.Fatal("patient waiter stuck after cancellation of a sibling")
	}
	wg.Wait()
	// The registry must be fully retired: no leaked flights.
	waitUntil(t, "registry drained", func() bool {
		p, r := b.InFlight()
		return p == 0 && r == 0
	})
	b.mu.Lock()
	leaked := len(b.flights)
	b.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d flights leaked in the registry", leaked)
	}
}

func TestBatcherPanicPublishesErrors(t *testing.T) {
	f := &fakeEmbedder{gate: make(chan struct{}), panicOn: true}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 1024})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := b.Embed(context.Background(), []int32{9}, []float64{3})
			errs <- err
		}()
	}
	waitUntil(t, "pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
	// A caller arriving after the panic retired the key would start a
	// second pass, which blocks on the gate for good.
	waitUntil(t, "second caller coalesced", func() bool { return b.Stats().Coalesced == 1 })
	f.gate <- struct{}{}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("waiter of a panicked pass got a nil error")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter stuck after pass panic")
		}
	}
	if b.Stats().Panics != 1 {
		t.Fatalf("panics = %d", b.Stats().Panics)
	}
	// The key must be retired so a retry recomputes cleanly.
	f.mu.Lock()
	f.panicOn = false
	f.mu.Unlock()
	f.gate = nil
	slab, err := b.Embed(context.Background(), []int32{9}, []float64{3})
	if err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
	checkSlab(t, slab, []int32{9}, []float64{3})
}

// newTestEngine builds a tiny real engine over a dynamic graph, the
// same shape the serving tests use.
func newTestEngine(t *testing.T) *core.Engine {
	t.Helper()
	const nodes, maxEdges, d = 20, 4096, 16
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, nodes+1, d)
	edgeFeat := tensor.Randn(r, maxEdges+1, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 4, Seed: 2}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	dyn := graph.NewDynamic(nodes)
	for _, e := range []graph.Edge{
		{Src: 1, Dst: 2, Time: 10}, {Src: 1, Dst: 3, Time: 20},
		{Src: 2, Dst: 4, Time: 30}, {Src: 3, Dst: 5, Time: 40},
		{Src: 4, Dst: 6, Time: 50}, {Src: 5, Dst: 1, Time: 60},
	} {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sampler := graph.NewDynamicSampler(dyn, cfg.NumNeighbors, graph.MostRecent, 0)
	return core.NewEngine(m, sampler, core.OptAll())
}

func TestBatcherMatchesEngineBitwise(t *testing.T) {
	eng := newTestEngine(t)
	d := eng.Model().Cfg.NodeDim
	b := New(eng, d, Config{Window: time.Millisecond, MaxBatch: 8})

	nodes := []int32{1, 2, 3, 1, 4, 5}
	ts := []float64{70, 70, 65, 70, 80, 80}
	want := eng.Embed(nodes, ts)

	// Concurrent single-target requests through the batcher must
	// reproduce the direct fused pass bitwise.
	var wg sync.WaitGroup
	slabs := make([][]float32, len(nodes))
	for i := range nodes {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), nodes[i:i+1], ts[i:i+1])
			if err != nil {
				t.Error(err)
				return
			}
			slabs[i] = slab
		}()
	}
	wg.Wait()
	for i := range nodes {
		for j := 0; j < d; j++ {
			if slabs[i][j] != want.At(i, j) {
				t.Fatalf("target %d differs from direct engine pass at col %d", i, j)
			}
		}
	}
}

func TestBatcherRetireTargetsBreaksSingleFlight(t *testing.T) {
	// Read-your-writes: once a history edit retires an in-flight key, a
	// request arriving after the edit must start a fresh pass against
	// the post-edit graph — never attach to the executing pre-edit one.
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 1024})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slab, err := b.Embed(context.Background(), []int32{42}, []float64{7})
		if err != nil {
			t.Error(err)
			return
		}
		checkSlab(t, slab, []int32{42}, []float64{7})
	}()
	waitUntil(t, "first pass executing", func() bool { _, r := b.InFlight(); return r == 1 })

	// An edit at t=7 does not retire the t=7 flight (only strictly newer
	// query times read the edited window)…
	if got := b.RetireTargets([]int32{42}, 7); got != 0 {
		t.Fatalf("edit at the flight's own time retired %d flights, want 0", got)
	}
	// …an edit beneath it does.
	if got := b.RetireTargets([]int32{42}, 5); got != 1 {
		t.Fatalf("retired %d flights, want 1", got)
	}
	if s := b.Stats(); s.RetireCalls != 2 || s.Retired != 1 {
		t.Fatalf("retire stats %+v", s)
	}

	// Same (node, ts) again: must queue a new slot, not coalesce into
	// the executing retired flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		slab, err := b.Embed(context.Background(), []int32{42}, []float64{7})
		if err != nil {
			t.Error(err)
			return
		}
		checkSlab(t, slab, []int32{42}, []float64{7})
	}()
	waitUntil(t, "post-retire request queued", func() bool { p, _ := b.InFlight(); return p == 1 })
	if got := b.Stats().Coalesced; got != 0 {
		t.Fatalf("post-retire request coalesced into the retired flight (%d)", got)
	}

	f.gate <- struct{}{} // release the pre-edit pass
	waitUntil(t, "second pass executing", func() bool { return f.numCalls() == 2 })
	f.gate <- struct{}{} // release the post-edit pass
	wg.Wait()
	if f.numCalls() != 2 {
		t.Fatalf("%d passes, want 2 (retire must break single-flight)", f.numCalls())
	}
	// The successor flight was created under the same key after the
	// retire; the retired pass's cleanup must not orphan it. (The pass
	// marks itself done just after publishing results, so poll.)
	waitUntil(t, "flight table drained", func() bool {
		p, r := b.InFlight()
		return p == 0 && r == 0
	})
}

func TestBatcherRetireTargetsConcurrentChurn(t *testing.T) {
	// Race pin (run with -race): embeds and retires interleaving freely
	// must neither race nor wedge, and every result stays correct.
	f := &fakeEmbedder{}
	b := New(f, fakeDim, Config{MaxBatch: 8})
	stop := make(chan struct{})
	var retirer sync.WaitGroup
	retirer.Add(1)
	go func() {
		defer retirer.Done()
		tm := 0.0
		for {
			select {
			case <-stop:
				return
			default:
				b.RetireTargets([]int32{1, 2, 3, 4}, tm)
				tm += 0.25
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				node := int32(1 + (w+i)%4)
				ts := float64(i)
				slab, err := b.Embed(context.Background(), []int32{node}, []float64{ts})
				if err != nil {
					t.Error(err)
					return
				}
				checkSlab(t, slab, []int32{node}, []float64{ts})
			}
		}()
	}
	wg.Wait()
	close(stop)
	retirer.Wait()
	// A runner publishes its rows, then takes the lock once more to find
	// the queue empty and retire: the last waiter can return before it
	// has. Leaked means still there once the runners have had their turn.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, r := b.InFlight()
		if p == 0 && r == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked flights after churn: pending=%d running=%d", p, r)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetireTargetsFastPathBound(t *testing.T) {
	// The engine's invalidation hook calls RetireTargets on every
	// chronological append. With no future-time work in flight the call
	// must exit on the atomic time bound without taking the batcher
	// lock — and the bound must reset once the flight table drains, or
	// one long-gone future flight would leave every later append paying
	// the locked scan forever.
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim, Config{Window: time.Hour, MaxBatch: 1024})

	if got := math.Float64frombits(b.maxFlightT.Load()); !math.IsInf(got, -1) {
		t.Fatalf("fresh batcher bound %v, want -Inf", got)
	}
	if got := b.RetireTargets([]int32{1}, 0); got != 0 {
		t.Fatalf("idle retire = %d, want 0", got)
	}

	// A future-time flight raises the bound, so an edit beneath it still
	// takes the slow path and retires it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slab, err := b.Embed(context.Background(), []int32{7}, []float64{100})
		if err != nil {
			t.Error(err)
			return
		}
		checkSlab(t, slab, []int32{7}, []float64{100})
	}()
	waitUntil(t, "pass executing", func() bool { _, r := b.InFlight(); return r == 1 })
	if got := math.Float64frombits(b.maxFlightT.Load()); got != 100 {
		t.Fatalf("bound %v, want 100", got)
	}
	if got := b.RetireTargets([]int32{7}, 50); got != 1 {
		t.Fatalf("retired %d, want 1", got)
	}
	// The retire emptied the table, so the bound is -Inf again and the
	// next append's hook is back to the O(1) exit.
	if got := math.Float64frombits(b.maxFlightT.Load()); !math.IsInf(got, -1) {
		t.Fatalf("bound after drain %v, want -Inf", got)
	}
	if got := b.RetireTargets([]int32{7}, 50); got != 0 {
		t.Fatalf("post-drain retire = %d, want 0", got)
	}

	f.gate <- struct{}{} // release the retired pass; it publishes normally
	wg.Wait()
}

package batcher

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

const fakeDim = 4

// fakeEmbedder produces deterministic rows from (node, ts) and the
// history version it reads at pass start, and, when gated, blocks each
// EmbedWith call until the test sends a token — letting tests hold a
// pass "executing" while they drive the queue.
type fakeEmbedder struct {
	gate    chan struct{}
	version atomic.Int64 // bumped by a test to stand in for an acknowledged write
	active  atomic.Int64 // passes inside EmbedWith now
	peak    atomic.Int64 // the most passes ever inside EmbedWith at once

	mu      sync.Mutex
	calls   [][]int32 // node list of each pass, in call order
	panicOn bool
}

func fakeRowAt(version int64, node int32, t float64, j int) float32 {
	return float32(version)*10000 + float32(node)*100 + float32(t) + float32(j)
}

func (f *fakeEmbedder) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	version := f.version.Load()
	n := f.active.Add(1)
	defer f.active.Add(-1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
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
			out.Set(fakeRowAt(version, nodes[i], ts[i], j), i, j)
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
			if got, want := slab[i*fakeDim+j], fakeRowAt(0, nodes[i], ts[i], j); got != want {
				t.Fatalf("row %d col %d: got %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestBatcherIdleFastPath(t *testing.T) {
	f := &fakeEmbedder{}
	b := New(f, fakeDim)
	slab, err := b.Embed(context.Background(), []int32{3, 7}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkSlab(t, slab, []int32{3, 7}, []float64{1, 2})
	s := b.Stats()
	if s.Batches != 1 || s.FlushIdle != 1 || s.FlushDrain != 0 {
		t.Fatalf("stats %+v: idle request must flush immediately, once", s)
	}
	if b.Occupancy().Sum() != 2 {
		t.Fatalf("occupancy sum %d, want 2", b.Occupancy().Sum())
	}
}

func TestBatcherDuplicateTargetsWithinRequest(t *testing.T) {
	f := &fakeEmbedder{}
	b := New(f, fakeDim)
	slab, err := b.Embed(context.Background(), []int32{5, 5, 9}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkSlab(t, slab, []int32{5, 5, 9}, []float64{1, 1, 1})
	// The batcher concatenates; deduplication is the engine's (§4.1).
	if got := f.call(0); len(got) != 3 {
		t.Fatalf("fused pass saw %v, want all 3 targets", got)
	}
	s := b.Stats()
	if s.Enqueued != 3 || s.Coalesced != 0 {
		t.Fatalf("stats %+v: a lone request joins no one's cohort", s)
	}
	if b.Occupancy().Sum() != 3 {
		t.Fatalf("occupancy sum %d, want 3 (duplicates included)", b.Occupancy().Sum())
	}
}

// holdSlots occupies every core's inline pass: it starts b.slots lone
// requests one at a time, waiting until each one's pass executes inside
// the gated fake, so each opens its own cohort and runs inline. Every
// request after it queues.
func holdSlots(t *testing.T, b *Batcher, f *fakeEmbedder, start func()) {
	t.Helper()
	for i := 1; i <= b.slots; i++ {
		start()
		waitUntil(t, "inline pass executing", func() bool { return f.numCalls() == i })
	}
}

// release lets n gated passes finish.
func release(f *fakeEmbedder, n int) {
	for i := 0; i < n; i++ {
		f.gate <- struct{}{}
	}
}

// newGated builds a batcher over a gated fake running at most slots
// passes at once.
func newGated(slots int) (*Batcher, *fakeEmbedder) {
	f := &fakeEmbedder{gate: make(chan struct{})}
	b := New(f, fakeDim)
	b.slots = slots
	return b, f
}

// The queueing scenarios below each hold every inline pass, drive the
// queue behind them and return the final counters. Each TestBatcher*
// runs its scenario at GOMAXPROCS slots (the count New reads);
// TestBatcherOneSlotKeepsFlushCounts runs all of them at one slot.

func drainAfterPass(t *testing.T, slots int) Snapshot {
	b, f := newGated(slots)
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
	holdSlots(t, b, f, func() { embed(1) })
	embed(2)
	embed(3)
	embed(4)
	waitUntil(t, "queue filled", func() bool { p, _ := b.InFlight(); return p == 3 })
	release(f, 1) // finish one held pass; its completion must drain the queue
	waitUntil(t, "drain pass", func() bool { return f.numCalls() == slots+1 })
	if got := f.call(slots); len(got) != 3 {
		t.Fatalf("drain pass had %d targets, want 3", len(got))
	}
	release(f, slots)
	wg.Wait()
	s := b.Stats()
	if s.FlushDrain != 1 {
		t.Fatalf("stats %+v: want one drain flush", s)
	}
	return s
}

func TestBatcherDrainAfterPass(t *testing.T) { drainAfterPass(t, runtime.GOMAXPROCS(0)) }

// capRequests requests of capPer targets queue behind the held passes:
// more targets than any flush size the batcher ever had.
const capRequests, capPer = 20, 16
const capQueued = capRequests * capPer

func atMostOnePassPerCore(t *testing.T, slots int) Snapshot {
	// With every core running a held pass, no queued target starts a
	// pass however many queue and however long they wait; the pass that
	// ends drains the whole queue as one.
	b, f := newGated(slots)
	var wg sync.WaitGroup
	embed := func(nodes []int32, ts []float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), nodes, ts)
			if err != nil {
				t.Error(err)
				return
			}
			checkSlab(t, slab, nodes, ts)
		}()
	}
	holdSlots(t, b, f, func() { embed([]int32{1}, []float64{1}) })
	for i := range capRequests {
		nodes, ts := make([]int32, capPer), make([]float64, capPer)
		for j := range nodes {
			nodes[j], ts[j] = int32(i*capPer+j), float64(j)
		}
		embed(nodes, ts)
	}
	waitUntil(t, "queue filled", func() bool { p, _ := b.InFlight(); return p == capQueued })
	time.Sleep(10 * time.Millisecond) // well past any flush window
	if n := f.numCalls(); n != slots {
		t.Fatalf("%d passes started with %d cores each running one", n, slots)
	}
	release(f, 1)
	waitUntil(t, "drain pass", func() bool { return f.numCalls() == slots+1 })
	if got := f.call(slots); len(got) != capQueued {
		t.Fatalf("drain pass had %d targets, want the whole queue's %d", len(got), capQueued)
	}
	release(f, slots)
	wg.Wait()
	if peak := f.peak.Load(); peak > int64(slots) {
		t.Fatalf("%d passes ran at once on %d slots", peak, slots)
	}
	s := b.Stats()
	if s.Batches != int64(slots)+1 || s.FlushIdle != int64(slots) || s.FlushDrain != 1 {
		t.Fatalf("stats %+v: want %d idle flushes and one drain flush", s, slots)
	}
	return s
}

func TestBatcherRunsAtMostOnePassPerCore(t *testing.T) {
	atMostOnePassPerCore(t, runtime.GOMAXPROCS(0))
}

func fusesQueuedRequests(t *testing.T, slots int) Snapshot {
	// Requests queued behind the executing passes run as one pass — the
	// concatenation of their targets, duplicates included — and every
	// caller gets its own correct rows. The cohort's opener lends its
	// slices in place: its joiners' appends leave a sentinel past their
	// length alone.
	b, f := newGated(slots)
	const queued, sentinel = 16, -7
	var wg sync.WaitGroup
	results := make([][]float32, slots+queued)
	nodes := make([][]int32, slots+queued)
	next := 0
	embed := func() {
		i := next
		next++
		nodes[i] = []int32{42, int32(i), sentinel, sentinel}[:2] // room for one joiner
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), nodes[i], []float64{7, 7})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = slab
		}()
	}
	holdSlots(t, b, f, embed)
	for i := 0; i < queued; i++ {
		embed()
	}
	waitUntil(t, "all requests queued", func() bool { p, _ := b.InFlight(); return p == 2*queued })
	for _, n := range nodes {
		if got := n[:4][2]; got != sentinel {
			t.Fatalf("a joiner wrote %d past the opener's length", got)
		}
	}
	release(f, 1) // finish one held pass; its completion drains the queue
	waitUntil(t, "fused pass", func() bool { return f.numCalls() == slots+1 })
	if got := f.call(slots); len(got) != 2*queued {
		t.Fatalf("fused pass had %d targets, want %d", len(got), 2*queued)
	}
	release(f, slots)
	wg.Wait()
	for i, slab := range results {
		checkSlab(t, slab, []int32{42, int32(i)}, []float64{7, 7})
	}
	s := b.Stats()
	// The first queued request opened the fused pass; the other queued-1
	// joined it. Each held pass is a lone request.
	if s.Enqueued != int64(2*(slots+queued)) || s.Coalesced != 2*(queued-1) || s.Batches != int64(slots)+1 || s.FlushDrain != 1 {
		t.Fatalf("stats %+v", s)
	}
	if b.QueueWait().Count() != int64(slots+queued) {
		t.Fatalf("queue wait observed %d times, want once per request (%d)", b.QueueWait().Count(), slots+queued)
	}
	return s
}

func TestBatcherFusesQueuedRequests(t *testing.T) { fusesQueuedRequests(t, runtime.GOMAXPROCS(0)) }

// fixedEmbedder answers every pass with one preallocated tensor: an
// embedder that allocates nothing, so a lone request's allocations are
// the batcher's own.
type fixedEmbedder struct{ out *tensor.Tensor }

func (f fixedEmbedder) EmbedWith(*tensor.Arena, []int32, []float64) *tensor.Tensor { return f.out }
func (f fixedEmbedder) Dim() int                                                   { return fakeDim }

func TestBatcherLoneRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	// A lone request allocates its cohort, the cohort's done channel
	// and the result slab; its node and time slices are the cohort's.
	b := New(fixedEmbedder{tensor.New(2, fakeDim)}, fakeDim)
	nodes, ts := []int32{1, 2}, []float64{3, 4}
	embed := func() {
		if _, err := b.Embed(context.Background(), nodes, ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, embed); got != 3 {
		t.Fatalf("a lone request allocates %v objects, want 3", got)
	}
}

func TestBatcherReadYourWrites(t *testing.T) {
	// A request that arrives after a write was acknowledged must see it,
	// even while a pass over the same ⟨node, t⟩ that predates the write
	// is still executing: the request queues for a pass captured after
	// it enqueued, never joining the running one. The gate holds one
	// token per pass, so releasing a second pass cannot block if a
	// batcher never starts one.
	f := &fakeEmbedder{gate: make(chan struct{}, 2)}
	b := New(f, fakeDim)
	first := make(chan []float32, 1)
	go func() {
		slab, err := b.Embed(context.Background(), []int32{42}, []float64{7})
		if err != nil {
			t.Error(err)
		}
		first <- slab
	}()
	waitUntil(t, "pass 1 executing", func() bool { return f.numCalls() == 1 })

	f.version.Add(1) // the acknowledged write

	second := make(chan []float32, 1)
	go func() {
		slab, err := b.Embed(context.Background(), []int32{42}, []float64{7})
		if err != nil {
			t.Error(err)
		}
		second <- slab
	}()
	waitUntil(t, "second request enqueued", func() bool { return b.Stats().Enqueued == 2 })
	f.gate <- struct{}{}
	f.gate <- struct{}{}
	if slab := <-first; slab[0] != fakeRowAt(0, 42, 7, 0) {
		t.Fatalf("pass 1 row %v, want the pre-write row", slab)
	}
	slab := <-second
	for j := 0; j < fakeDim; j++ {
		if want := fakeRowAt(1, 42, 7, j); slab[j] != want {
			t.Fatalf("post-write request col %d = %v, want %v (served a pass that predates the write)", j, slab[j], want)
		}
	}
}

func cancellationLeavesNoStuckWaiters(t *testing.T, slots int) Snapshot {
	b, f := newGated(slots)
	var wg sync.WaitGroup
	holdSlots(t, b, f, func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Embed(context.Background(), []int32{1}, []float64{1}); err != nil {
				t.Error(err)
			}
		}()
	})

	// A queued caller whose context is cancelled must return promptly
	// even though the passes ahead of it are still blocked.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := b.Embed(ctx, []int32{1}, []float64{1})
		cancelled <- err
	}()
	waitUntil(t, "cancelled caller queued", func() bool { p, _ := b.InFlight(); return p == 1 })
	cancel()
	select {
	case err := <-cancelled:
		if err != context.Canceled {
			t.Fatalf("cancelled caller returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled caller stuck")
	}

	// A patient caller in the same cohort still gets the result.
	patient := make(chan []float32, 1)
	go func() {
		slab, err := b.Embed(context.Background(), []int32{1}, []float64{1})
		if err != nil {
			t.Error(err)
		}
		patient <- slab
	}()
	waitUntil(t, "patient caller queued", func() bool { p, _ := b.InFlight(); return p == 2 })
	release(f, slots) // the held passes
	release(f, 1)     // the drain pass carrying both queued callers
	select {
	case slab := <-patient:
		checkSlab(t, slab, []int32{1}, []float64{1})
	case <-time.After(2 * time.Second):
		t.Fatal("patient caller stuck after cancellation of a sibling")
	}
	wg.Wait()
	waitUntil(t, "queue drained", func() bool {
		p, r := b.InFlight()
		return p == 0 && r == 0
	})
	return b.Stats()
}

func TestBatcherCancellationLeavesNoStuckWaiters(t *testing.T) {
	cancellationLeavesNoStuckWaiters(t, runtime.GOMAXPROCS(0))
}

func panicPublishesErrors(t *testing.T, slots int) Snapshot {
	b, f := newGated(slots)
	f.panicOn = true
	errs := make(chan error, slots+2)
	embed := func() {
		_, err := b.Embed(context.Background(), []int32{9}, []float64{3})
		errs <- err
	}
	holdSlots(t, b, f, func() { go embed() })
	// Two more callers share the next cohort; its panic reaches both.
	go embed()
	go embed()
	waitUntil(t, "two callers queued", func() bool { p, _ := b.InFlight(); return p == 2 })
	release(f, slots+1)
	for i := 0; i < slots+2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("caller of a panicked pass got a nil error")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("caller stuck after pass panic")
		}
	}
	if b.Stats().Panics != int64(slots)+1 {
		t.Fatalf("panics = %d, want %d", b.Stats().Panics, slots+1)
	}
	waitUntil(t, "queue drained", func() bool {
		p, r := b.InFlight()
		return p == 0 && r == 0
	})
	// A retry recomputes cleanly.
	f.mu.Lock()
	f.panicOn = false
	f.mu.Unlock()
	f.gate = nil
	slab, err := b.Embed(context.Background(), []int32{9}, []float64{3})
	if err != nil {
		t.Fatalf("retry after panic: %v", err)
	}
	checkSlab(t, slab, []int32{9}, []float64{3})
	return b.Stats()
}

func TestBatcherPanicPublishesErrors(t *testing.T) { panicPublishesErrors(t, runtime.GOMAXPROCS(0)) }

func TestBatcherRunsOnePassPerFreeCore(t *testing.T) {
	// While a core is free a request runs its own pass inline: slots lone
	// requests in flight together run as slots passes, none coalesced.
	// (Each starts once the one before it executes, so the count of
	// passes is known when the next request arrives.)
	b, f := newGated(runtime.GOMAXPROCS(0))
	slots := b.slots
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
	node := int32(0)
	holdSlots(t, b, f, func() { node++; embed(node) })
	if p, r := b.InFlight(); p != 0 || r != slots {
		t.Fatalf("pending %d, running %d: want 0 and %d", p, r, slots)
	}
	if s := b.Stats(); s.Coalesced != 0 || s.FlushIdle != int64(slots) {
		t.Fatalf("stats %+v: want %d idle flushes, nothing coalesced", s, slots)
	}
	// Every core runs a pass: the next request queues, and the first
	// pass to finish drains it.
	embed(node + 1)
	waitUntil(t, "request queued", func() bool { p, _ := b.InFlight(); return p == 1 })
	if f.numCalls() != slots {
		t.Fatalf("%d passes started, want %d: a request ran with every core busy", f.numCalls(), slots)
	}
	release(f, 1)
	waitUntil(t, "drain pass", func() bool { return f.numCalls() == slots+1 })
	if got := f.call(slots); len(got) != 1 || got[0] != node+1 {
		t.Fatalf("drain pass saw %v, want [%d]", got, node+1)
	}
	release(f, slots)
	wg.Wait()
	s := b.Stats()
	if s.Batches != int64(slots)+1 || s.FlushIdle != int64(slots) || s.FlushDrain != 1 || s.Coalesced != 0 {
		t.Fatalf("stats %+v: want %d idle flushes and one drain flush", s, slots)
	}
}

func TestBatcherOneDrainForTwoEndingPasses(t *testing.T) {
	// Two held passes end together with one request queued: the first
	// to take the lock schedules a drain runner, and the second finds
	// that runner still waiting to capture and leaves the cohort to it,
	// so no second runner spawns to capture nothing. The lock is held
	// while both passes end, so both see the cohort queued.
	for round := 0; round < 20; round++ {
		b, f := newGated(2)
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
		node := int32(0)
		holdSlots(t, b, f, func() { node++; embed(node) })
		embed(node + 1)
		waitUntil(t, "request queued", func() bool { p, _ := b.InFlight(); return p == 1 })
		b.mu.Lock()
		release(f, 2)
		for b.batches.Load() != 2 {
			runtime.Gosched()
		}
		b.mu.Unlock()
		waitUntil(t, "drain pass", func() bool { return f.numCalls() == 3 })
		release(f, 1)
		wg.Wait()
		if s := b.Stats(); s.FlushDrain != 1 || s.Batches != 3 {
			t.Fatalf("round %d: stats %+v: want one drain flush and three passes", round, s)
		}
	}
}

func TestBatcherSecondCallerTakesTheFreeCore(t *testing.T) {
	// Two lone requests started in the same instant at two slots run two
	// passes: the first takes its cohort before it lets go of the lock,
	// so the second opens its own on the free core instead of joining
	// the first's pass and waiting on it while that core idles. One P
	// runs the second caller exactly where a caller that yielded before
	// taking its cohort would let it in.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, f := newGated(2)
	var wg sync.WaitGroup
	for _, node := range []int32{1, 2} {
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
	waitUntil(t, "two passes executing", func() bool { return f.numCalls() == 2 })
	for i := 0; i < 2; i++ {
		if got := f.call(i); len(got) != 1 {
			t.Fatalf("pass %d saw %v, want one request's target", i, got)
		}
	}
	release(f, 2)
	wg.Wait()
	if s := b.Stats(); s.Batches != 2 || s.FlushIdle != 2 || s.Coalesced != 0 {
		t.Fatalf("stats %+v: want two idle passes, nothing coalesced", s)
	}
}

func TestBatcherOneSlotKeepsFlushCounts(t *testing.T) {
	// At one slot the idle path fires only while no pass executes, so
	// each scenario's counters are those of a batcher that runs one
	// pass at a time: every flush is the idle path's or a drain.
	for _, tc := range []struct {
		name string
		run  func(*testing.T, int) Snapshot
		want Snapshot
	}{
		{"cap", atMostOnePassPerCore, Snapshot{Enqueued: 1 + capQueued, Coalesced: capQueued - capPer, Batches: 2, FlushIdle: 1, FlushDrain: 1}},
		{"drain", drainAfterPass, Snapshot{Enqueued: 4, Coalesced: 2, Batches: 2, FlushIdle: 1, FlushDrain: 1}},
		{"fuse", fusesQueuedRequests, Snapshot{Enqueued: 34, Coalesced: 30, Batches: 2, FlushIdle: 1, FlushDrain: 1}},
		{"cancel", cancellationLeavesNoStuckWaiters, Snapshot{Enqueued: 3, Coalesced: 1, Batches: 2, FlushIdle: 1, FlushDrain: 1}},
		{"panic", panicPublishesErrors, Snapshot{Enqueued: 4, Coalesced: 1, Batches: 1, FlushIdle: 2, FlushDrain: 1, Panics: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(t, 1); got != tc.want {
				t.Fatalf("stats %+v, want %+v", got, tc.want)
			}
		})
	}
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
	b := New(eng, d)

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

// gatedEngine holds each pass over a real engine until the test sends
// a token.
type gatedEngine struct {
	core.Embedder
	gate    chan struct{}
	entered atomic.Int64
}

func (g *gatedEngine) EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor {
	g.entered.Add(1)
	<-g.gate
	return g.Embedder.EmbedWith(ar, nodes, ts)
}

func TestBatcherDrainedPassMatchesEngineBitwise(t *testing.T) {
	// Requests queued behind every core's held pass run on the batcher's
	// runner, all in the one pass that drains them, and each gets the
	// direct pass's rows bit for bit.
	eng := newTestEngine(t)
	d := eng.Model().Cfg.NodeDim
	g := &gatedEngine{Embedder: eng, gate: make(chan struct{})}
	b := New(g, d)

	nodes := []int32{1, 2, 3, 1, 4, 5}
	ts := []float64{70, 70, 65, 70, 80, 80}
	want := eng.Embed(nodes, ts)

	var wg sync.WaitGroup
	embed := func(i int, out *[]float32) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slab, err := b.Embed(context.Background(), nodes[i:i+1], ts[i:i+1])
			if err != nil {
				t.Error(err)
				return
			}
			*out = slab
		}()
	}
	for i := 1; i <= b.slots; i++ {
		embed(0, new([]float32))
		waitUntil(t, "held pass executing", func() bool { return g.entered.Load() == int64(i) })
	}
	slabs := make([][]float32, len(nodes))
	for i := range nodes {
		embed(i, &slabs[i])
	}
	waitUntil(t, "requests queued", func() bool { p, _ := b.InFlight(); return p == len(nodes) })
	g.gate <- struct{}{} // one held pass ends; the drain pass takes the queue
	waitUntil(t, "drain pass executing", func() bool { return g.entered.Load() == int64(b.slots)+1 })
	for range b.slots {
		g.gate <- struct{}{}
	}
	wg.Wait()
	if s := b.Stats(); s.Batches != int64(b.slots)+1 || s.FlushDrain == 0 {
		t.Fatalf("stats %+v: want the queued requests in one drained pass", s)
	}
	for i := range nodes {
		for j := 0; j < d; j++ {
			if math.Float32bits(slabs[i][j]) != math.Float32bits(want.At(i, j)) {
				t.Fatalf("target %d differs from the direct engine pass at col %d", i, j)
			}
		}
	}
}

// InFlight reports the live queue state: targets pending in the open
// cohort and fused passes currently executing.
func (b *Batcher) InFlight() (pending, running int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending != nil {
		pending = len(b.pending.nodes)
	}
	return pending, b.running
}

package core

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// The steps of an engine-oracle history, one per op byte: b % numSteps
// is the kind, b / numSteps its parameter p.
const (
	stepAppend     = iota // an edge at or past the clock, (odd p) a read of every query, then its invalidation
	stepLate              // an edge below the clock, (odd p) a read of every query, then its invalidation
	stepDelete            // a live edge goes, then its invalidation
	stepEmbed             // a batch at one time class, with targets Key folds
	stepReask             // one batch asked twice: the top memo answers
	stepSnapshot          // save, the graph changes, load into a fresh engine
	stepSwap              // other parameters: Model.WithParams, then NewEngine
	stepParkedRead        // a write issued during a parked read waits for it
	stepFeature           // a node's feature row is written, then InvalidateNode
	numSteps
)

var stepNames = [numSteps]string{"append", "late", "delete", "embed", "re-ask", "snapshot", "swap", "parked read", "feature"}

// Time classes. Key is collision-free only on the integral times in
// [0, 2³²); a time of the other three shares its key with one inside.
// An embed draws one of the four (p % 4), an edge one of three (p % 3):
// an append is never negative, a late edge never ≥ 2³².
const (
	timeIntegral = iota
	timeFractional
	timeHuge // an append's third class
	timeNegative
)

// edgeClass is an edge step's time class.
func edgeClass(late bool, p int) int {
	if late && p%3 == 2 {
		return timeNegative
	}
	return p % 3
}

// oracleConfig is the engine configuration a history runs under.
type oracleConfig struct {
	layers   int
	opt      Options
	topMemo  bool
	lateness float64
}

// decodeOracleConfig reads a configuration byte: bits 0–1 pick L, bit 2
// FIFO over TinyLFU, bit 3 turns dedup off, bit 4 the top memo off (so
// every answer goes through the layer caches), bit 5 the tight limit,
// bit 6 a finite lateness, so the watermark moves and index records
// retire.
func decodeOracleConfig(c byte) oracleConfig {
	opt := OptAll()
	opt.CachePolicy = [2]CachePolicy{CacheTinyLFU, CacheFIFO}[c>>2&1]
	opt.EnableDedup = c>>3&1 == 0
	opt.CacheLimit = [2]int{1 << 16, oracleTightLimit}[c>>5&1]
	lateness := [2]float64{1e12, oracleFiniteLateness}[c>>6&1] // 1e12: every late edge, negative ones too, is accepted
	return oracleConfig{layers: 2 + int(c&3)%3, opt: opt, topMemo: c>>4&1 == 0, lateness: lateness}
}

// oracleFiniteLateness is bit 6's lateness window: a few interactions
// deep, so the stream's early records fall below the watermark.
const oracleFiniteLateness = 40

// oracleTightLimit is the cache limit under which the warm pass alone
// evicts.
const oracleTightLimit = 96

// oracleSeeds is FuzzEngineOracle's committed corpus. Between them the
// seeds draw every configuration value and every step kind at every
// time class (TestEngineOracleSeedsCoverEveryStep).
var oracleSeeds = []struct {
	conf byte
	ops  []byte
	seed int64
}{
	{0x40, []byte{0, 1, 2, 3, 4, 27, 5, 6, 7, 8}, 1},
	{0x41, []byte{12, 9, 19, 10, 13, 14, 15, 16, 17, 11, 28}, 2},
	{0x42, []byte{1, 10, 19, 11, 20, 2, 7, 16, 25, 27, 28, 9}, 3},
	{0x2d, []byte{21, 30, 39, 22, 3, 4, 23, 32, 0, 9, 18, 6, 15}, 4},
	{0x1a, []byte{0, 9, 18, 27, 1, 10, 19, 28, 10, 45, 46, 24, 33}, 5},
	{0x36, []byte{3, 12, 13, 27, 5, 14, 6, 7, 16, 8}, 6},
}

// FuzzEngineOracle is the engine's exactness oracle (DESIGN.md §11):
// every history it generates runs one engine configuration through
// appends, late edges, deletes, feature writes, embeds at every time
// class, re-asks, reads between a write and its invalidation on one
// goroutine, writes issued during a parked read, snapshot save and
// load, and params swaps. After every step the engine answers the whole
// query set bitwise as the baseline does on the current graph and
// parameters.
func FuzzEngineOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s.conf, s.ops, s.seed)
	}
	f.Fuzz(runEngineOracle)
}

func runEngineOracle(t *testing.T, conf byte, ops []byte, seed int64) {
	if len(ops) > 24 {
		ops = ops[:24] // bound per-input work
	}
	cfg := decodeOracleConfig(conf)
	r := tensor.NewRNG(uint64(seed))
	const nodes, total, k = 12, 64, 3
	stream := make([]graph.Edge, 0, total)
	clock := 0.0
	for len(stream) < total {
		clock += float64(2 + r.Intn(6))
		src, dst := int32(1+r.Intn(nodes)), int32(1+r.Intn(nodes))
		if src != dst {
			stream = append(stream, graph.Edge{Src: src, Dst: dst, Time: clock, Idx: int32(len(stream) + 1)})
		}
	}
	ms := oracleModels(t, r, cfg.layers, k, nodes, total+len(ops)+2)
	dyn := graph.NewDynamic(nodes)
	dyn.SetLateness(cfg.lateness)
	finite := cfg.lateness == oracleFiniteLateness
	for _, e := range stream {
		if _, err := dyn.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sampler := graph.NewDynamicSampler(dyn, k, graph.MostRecent, 0)
	newEngine := func(m *tgat.Model) *Engine {
		e := NewEngine(m, sampler, cfg.opt)
		if !cfg.topMemo {
			e.topMemo = nil
		}
		return e
	}
	// cur is the engine's model; ref is a model built independently with
	// the same parameters, so the baseline is not computed through the
	// swap under test.
	which, version := 0, uint64(0)
	cur, ref := ms[0], ms[0]
	eng := newEngine(cur)
	dir := t.TempDir()

	// The query set: every interaction and every embedded batch, plus a
	// probe per node one past the clock, for every clock the history has
	// had: a later write lands beneath the earlier probes. Each check
	// re-asks all of it, so the caches and the memo stay warm and a stale
	// row surfaces as a hit.
	var qns []int32
	var qts []float64
	ask := func(ns []int32, ts []float64) { qns, qts = append(qns, ns...), append(qts, ts...) }
	for _, e := range stream {
		ask([]int32{e.Src, e.Dst}, []float64{e.Time, e.Time})
	}
	probes := func() ([]int32, []float64) {
		var ns []int32
		var ts []float64
		for v := int32(1); v <= nodes; v++ {
			ns, ts = append(ns, v), append(ts, dyn.MaxTime()+1)
		}
		return ns, ts
	}
	probedAt := math.NaN()
	queries := func() ([]int32, []float64) {
		if at := dyn.MaxTime() + 1; at != probedAt {
			probedAt = at
			ask(probes())
		}
		return append([]int32(nil), qns...), append([]float64(nil), qts...)
	}
	exact := func(what string, ns []int32, ts []float64) {
		t.Helper()
		if !sameBits(eng.Embed(ns, ts), freshBaseline(t, ref, dyn, ns, ts)) {
			t.Fatalf("%s: an answer differs from the baseline", what)
		}
	}
	ns, ts := queries()
	exact("warm", ns, ts)
	if cfg.opt.CacheLimit == oracleTightLimit && !finite { // retired records are not counted
		if c := eng.CacheFor(1); distinctKeys(eng.IndexFor(1)) <= c.Limit() {
			t.Fatalf("the warm pass stored no more layer-1 keys than the %d the tight limit holds", c.Limit())
		}
	}

	// touched is, per node, the earliest time a write reached it.
	touched := map[int32]float64{}
	touch := func(e graph.Edge) {
		for _, w := range []int32{e.Src, e.Dst} {
			if first, ok := touched[w]; !ok || e.Time < first {
				touched[w] = e.Time
			}
		}
	}
	// selective runs the invalidation of a write to (u, v) and checks
	// that it dropped no row that read neither u's nor v's window: no
	// layer-1 row of another node and, for L ≥ 3, no layer-2 row whose
	// target and sampled neighbours all avoid u and v. The write touches
	// only u's and v's adjacency, so another target's neighbours are the
	// same before it as after it, when they are sampled here. A layer-2
	// row is checked only if every time its key was computed it read
	// this window: its key folds no other time the history asked (an
	// out-of-domain time's neighbours file records under the folded key)
	// and no earlier write reached its target below its time (records
	// of an older window may linger, and only over-invalidate).
	selective := func(u, v int32, invalidate func()) {
		t.Helper()
		avoids := func(w int32) bool { return w != u && w != v }
		var keep [3][]uint64
		for _, key := range eng.CacheFor(1).Keys() {
			if avoids(int32(key >> 32)) {
				keep[1] = append(keep[1], key)
			}
		}
		if cfg.layers >= 3 {
			folded := map[uint64]bool{}
			for i, at := range qts {
				if !inKeyDomain(at) {
					folded[Key(qns[i], at)] = true
				}
			}
			var ns []int32
			var ts []float64
			for _, key := range eng.CacheFor(2).Keys() {
				w, at := int32(key>>32), float64(uint32(key))
				if first, ok := touched[w]; avoids(w) && !folded[key] && (!ok || first >= at) {
					ns, ts = append(ns, w), append(ts, at)
				}
			}
			b := sampler.Sample(ns, ts)
			for i := range ns {
				if !slices.ContainsFunc(b.Nghs[i*k:(i+1)*k], func(x int32) bool { return !avoids(x) }) {
					keep[2] = append(keep[2], Key(ns[i], ts[i]))
				}
			}
		}
		invalidate()
		for l := 1; l <= 2; l++ {
			for _, key := range keep[l] {
				if !eng.CacheFor(l).Contains(key) {
					t.Fatalf("a write to (%d, %d) dropped node %d's layer-%d row at %d, which read neither window", u, v, int32(key>>32), l, uint32(key))
				}
			}
		}
	}
	live := append([]graph.Edge(nil), stream...)
	nextIdx := int32(total + 1)
	// ingest writes e to the graph and returns its invalidation.
	ingest := func(e graph.Edge) func() {
		t.Helper()
		e.Idx = nextIdx
		nextIdx++
		res, _, err := dyn.Ingest(e)
		if err != nil || res == graph.IngestDropped {
			t.Fatalf("ingest %+v: %v, %v", e, res, err)
		}
		live = append(live, e)
		ask([]int32{e.Src, e.Dst}, []float64{e.Time, e.Time})
		return func() {
			selective(e.Src, e.Dst, func() { eng.InvalidateEdge(e.Src, e.Dst, e.Time) })
			touch(e)
		}
	}
	// edge draws step's edge: an append at or past the clock, or a late
	// edge below it, raised to the watermark under a finite lateness.
	edge := func(step, p int, late bool) graph.Edge {
		u, v := int32(1+(p+step)%nodes), int32(1+(p/3+3*step+1)%nodes)
		if u == v {
			v = v%nodes + 1
		}
		e := graph.Edge{Src: u, Dst: v}
		lo := stream[(p*7+step)%total].Time
		switch edgeClass(late, p) {
		case timeIntegral:
			e.Time = math.Ceil(dyn.MaxTime()) + float64(p%4) // p%4 == 0: at the clock
			if late {
				e.Time = lo + 1 // an append if that passes the clock
			}
		case timeFractional:
			e.Time = dyn.MaxTime() + 0.5
			if late {
				e.Time = lo + 0.5
			}
		case timeHuge:
			e.Time = dyn.MaxTime() + 1<<32
		case timeNegative:
			e.Time = -1 - float64(p)
		}
		e.Time = max(e.Time, math.Ceil(dyn.Watermark()))
		return e
	}
	deleteLive := func(step, p int) func() {
		t.Helper()
		i := (p*11 + step) % len(live)
		e := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		if !dyn.DeleteEdge(e.Idx) {
			t.Fatalf("DeleteEdge(%d) found nothing", e.Idx)
		}
		invalidate := func() {
			eng.InvalidateEdge(e.Src, e.Dst, e.Time)
			touch(e)
		}
		if e.Time < math.Floor(dyn.Watermark()) {
			return invalidate // below the watermark every layer clears
		}
		return func() { selective(e.Src, e.Dst, invalidate) }
	}
	// write is the snapshot step's graph change: it gains or loses an edge.
	write := func(step, p int) func() {
		if p%3 == 2 {
			return deleteLive(step, p)
		}
		return ingest(edge(step, p/3, p%3 == 1))
	}
	// batch is an embed at time class p % 4: two nodes at an in-domain
	// time and at one of that class, plus a repeat. The base time is an
	// interaction's or one ahead of the clock, where appends land beneath.
	batch := func(step, p int) ([]int32, []float64) {
		a, b := int32(1+(p+step)%nodes), int32(1+(p+2*step+5)%nodes)
		base := stream[(p*5+step)%total].Time
		if p/4%2 == 1 {
			base = math.Floor(dyn.MaxTime()) + float64(2+step)
		}
		off := base + [4]float64{3, 0.25, 1 << 32, -(1 << 33)}[p%4]
		return []int32{a, a, b, b, a}, []float64{base, off, base, off, base}
	}

	for step, op := range ops {
		kind, p := int(op)%numSteps, int(op)/numSteps
		label := fmt.Sprintf("step %d (%s)", step, stepNames[kind])
		switch kind {
		case stepAppend, stepLate:
			inval := ingest(edge(step, p, kind == stepLate))
			if p%2 == 1 {
				// On one goroutine a read may come between the write and
				// its invalidation; what it stores must not outlive the
				// invalidation. (A concurrent read cannot: the writer
				// holds the graph's write gate, see parkedRead.)
				eng.Embed(queries())
			}
			inval()
		case stepDelete:
			deleteLive(step, p)()
		case stepEmbed, stepReask:
			ns, ts := batch(step, p)
			ask(ns, ts)
			exact(label, ns, ts)
			if kind == stepReask {
				hits := eng.TopMemoStats().Hits
				exact(label+", asked again", ns, ts)
				if cfg.topMemo && eng.TopMemoStats().Hits == hits {
					t.Fatalf("%s: an immediate re-ask hit no memo row", label)
				}
			}
		case stepSnapshot:
			path := filepath.Join(dir, "caches.tgc")
			if err := eng.SaveCachesFS(checkpoint.OS{}, path); err != nil {
				t.Fatal(err)
			}
			write(step, p)()
			other := newEngine(ms[1-which])
			if err := other.LoadCachesFS(checkpoint.OS{}, path); err == nil || other.CacheLen() != 0 {
				t.Fatalf("%s: loaded over other parameters: err %v, %d rows", label, err, other.CacheLen())
			}
			// The same parameters under another version label load.
			version++
			cur = restage(t, dir, cur, cur, version)
			eng = newEngine(cur)
			if err := eng.LoadCachesFS(checkpoint.OS{}, path); err != nil {
				t.Fatalf("%s: refused over its own parameters: %v", label, err)
			}
		case stepSwap:
			which, version = 1-which, version+1
			cur, ref = restage(t, dir, cur, ms[which], version), ms[which]
			eng = newEngine(cur)
			if eng.ParamsVersion() != version {
				t.Fatalf("%s: the engine serves v%d, want v%d", label, eng.ParamsVersion(), version)
			}
			ns, ts := probes()
			h := freshBaseline(t, ref, dyn, ns, ts)
			d := h.Dim(1)
			src, dst := tensor.FromSlice(h.Data()[:nodes/2*d], nodes/2, d), tensor.FromSlice(h.Data()[nodes/2*d:], nodes/2, d)
			if !sameBits(eng.ScoreWith(nil, src, dst), NewEngine(ref, sampler, cfg.opt).ScoreWith(nil, src, dst)) {
				t.Fatalf("%s: scores differ from a fresh engine's over the same parameters", label)
			}
		case stepParkedRead:
			parkedRead(t, eng, ref, dyn, step, p, ingest, ask)
		case stepFeature:
			v := int32(1 + (p+step)%nodes)
			for j, x := range cur.NodeFeat.Row(int(v)) {
				cur.NodeFeat.Set(x+0.5, int(v), j)
			}
			eng.InvalidateNode(v)
		}
		ns, ts = queries()
		exact(label, ns, ts)
		if kind == stepSwap && eng.CacheLen() == 0 {
			t.Fatalf("%s: the new engine re-warmed no cache", label)
		}
	}
}

// parkedRead parks a read on the layer-1 window index's lock for its
// first target x, after its layer-1 store, and issues a late edge's
// write from another goroutine: the writer takes the graph's write
// gate, which the read holds, so the write and its invalidation wait
// for the read, and the read answers bitwise as the baseline does on
// the graph before the write.
func parkedRead(t *testing.T, eng *Engine, ref *tgat.Model, dyn *graph.Dynamic, step, p int, ingest func(graph.Edge) func(), ask func([]int32, []float64)) {
	t.Helper()
	n := dyn.NumNodes()
	u, v := int32(1+(p+step)%n), int32(1+(p+step+1)%n)
	ix := eng.IndexFor(1)
	var x int32
	for w := int32(1); int(w) <= n && x == 0; w++ {
		if s := ix.shardFor(w); s != ix.shardFor(u) && s != ix.shardFor(v) {
			x = w
		}
	}
	// A time no step asks otherwise, so every layer misses on ⟨x, T⟩.
	T := float64(1<<31 + step)
	if x == 0 || T <= dyn.MaxTime() {
		return
	}
	ns, ts := []int32{x, u}, []float64{T, T}
	ask(ns, ts)
	want := freshBaseline(t, ref, dyn, ns, ts)
	stores := eng.Ops().Calls(stats.OpCacheStore)
	s := ix.shardFor(x)
	s.mu.Lock()
	var got *tensor.Tensor
	done := make(chan struct{})
	go func() {
		defer close(done)
		got = eng.Embed(ns, ts)
	}()
	for eng.Ops().Calls(stats.OpCacheStore) == stores { // layer 1 stores first
		select {
		case <-done:
			s.mu.Unlock()
			t.Fatalf("step %d: the parked read stored nothing", step)
		default:
			runtime.Gosched()
		}
	}
	gate, locked := dyn.Gate(), make(chan struct{})
	go func() {
		gate.Lock()
		close(locked)
	}()
	select {
	case <-locked:
		s.mu.Unlock()
		<-done
		gate.Unlock()
		t.Fatalf("step %d: a writer took the graph's write gate while a read was parked", step)
	case <-time.After(10 * time.Millisecond):
	}
	s.mu.Unlock()
	<-done
	<-locked
	ingest(graph.Edge{Src: u, Dst: v, Time: dyn.MaxTime() - 0.5})()
	gate.Unlock()
	if !sameBits(got, want) {
		t.Fatalf("step %d: the parked read differs from the baseline on the graph before the write", step)
	}
}

// oracleModels builds the two parameter sets a swap moves between, over
// one pair of feature tables. The second also moves the time encoder,
// which a seed alone leaves at its fixed init, so a swap that kept the
// old time table would show.
func oracleModels(t *testing.T, r *tensor.RNG, layers, k, nodes, edges int) [2]*tgat.Model {
	t.Helper()
	const d = 8
	nodeFeat, edgeFeat := tensor.Randn(r, nodes+1, d), tensor.Randn(r, edges+1, d)
	for j := 0; j < d; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	var ms [2]*tgat.Model
	for i := range ms {
		cfg := tgat.Config{Layers: layers, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: k, Seed: uint64(11 + i)}
		m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	for _, p := range ms[1].Time.Params() {
		for j, x := range p.Data() {
			p.Data()[j] = x*1.5 + 0.01*float32(j)
		}
	}
	return ms
}

// restage is the model half of a params swap (serve.Server.SwapParams):
// src's parameters, checkpointed and staged over m as version.
func restage(t *testing.T, dir string, m, src *tgat.Model, version uint64) *tgat.Model {
	t.Helper()
	path := filepath.Join(dir, "params.tgp")
	if err := src.SaveParamsFS(checkpoint.OS{}, path); err != nil {
		t.Fatal(err)
	}
	sp, err := m.ParseParamsFS(checkpoint.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	return m.WithParams(sp, version)
}

// distinctKeys counts the distinct keys ix holds records for.
func distinctKeys(ix *WindowIndex) int {
	seen := map[uint64]bool{}
	for i := range ix.shards {
		for _, list := range ix.shards[i].m {
			for _, r := range list {
				seen[r.key] = true
			}
		}
	}
	return len(seen)
}

// TestEngineOracleSeedsCoverEveryStep: the committed corpus draws every
// configuration value, every step kind, and every time class of the
// steps that draw one.
func TestEngineOracleSeedsCoverEveryStep(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range oracleSeeds {
		c := decodeOracleConfig(s.conf)
		for name, v := range map[string]any{"L": c.layers, "fifo": c.opt.CachePolicy == CacheFIFO, "dedup": c.opt.EnableDedup, "memo": c.topMemo, "tight": c.opt.CacheLimit == oracleTightLimit, "finite": c.lateness == oracleFiniteLateness} {
			seen[fmt.Sprint(name, "=", v)] = true
		}
		for _, op := range s.ops {
			kind, p := int(op)%numSteps, int(op)/numSteps
			seen[stepNames[kind]] = true
			switch kind {
			case stepAppend, stepLate:
				seen[fmt.Sprint(stepNames[kind], "=", edgeClass(kind == stepLate, p))] = true
				if p%2 == 1 {
					seen[fmt.Sprint(stepNames[kind], " read between")] = true
				}
				if kind == stepAppend && edgeClass(false, p) == timeIntegral && p%4 == 0 {
					seen["append at the clock"] = true
				}
			case stepEmbed:
				seen[fmt.Sprint("embed=", p%4)] = true
			}
		}
	}
	want := []string{"L=2", "L=3", "L=4", "fifo=true", "fifo=false", "dedup=true", "dedup=false", "memo=true", "memo=false", "tight=true", "tight=false", "finite=true", "finite=false",
		"append=0", "append=1", "append=2", "late=0", "late=1", "late=3", "embed=0", "embed=1", "embed=2", "embed=3",
		"append read between", "late read between", "append at the clock"}
	for _, w := range append(want, stepNames[:]...) {
		if !seen[w] {
			t.Errorf("no seed draws %q", w)
		}
	}
}

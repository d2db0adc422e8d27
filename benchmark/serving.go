package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/serve"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

type opKind uint8

const (
	opEmbed opKind = iota
	opScore
	opIngest
)

// sop is one serving op: one HTTP request, generated from the seed and
// encoded before anything is timed.
type sop struct {
	kind  opKind
	path  string
	nodes []int32 // embed: the targets; score: sources then destinations
	ts    []float64
	edges []graph.Edge // ingest
	late  []bool       // ingest: the edge was shuffled behind later ones
	seq   int          // ingest: position among the ingest ops
	body  []byte
	span  string // name of the traced run's span around the request
}

// serveEnv is one set-up of a serving workload: dataset, model, the
// graph ingested so far, the server behind a loopback listener, a
// client with two connections, and the whole op log — warm-up, phase A
// (closed loop), phase B (open loop) and the traced run's probe ops.
type serveEnv struct {
	w     *workload
	ds    *dataset.Dataset
	model *tgat.Model
	dyn   *graph.Dynamic
	srv   *serve.Server

	handler http.Handler
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	url     string

	ops                  []sop
	warm, nA, nB, nProbe int
	preload              []graph.Edge // edges ingested before the server starts
	lateness             float64
	numIngest            int
	ingestDone           atomic.Int64
}

const clients = 2 // connections of the load generator, both phases

// genOps builds the op log from the seed. Reads are 16-target embeds
// and 8-pair scores 3:1 over a 512-target Zipf pool, all at a shared
// "now". Read-only, "now" starts past the end of history and steps
// every nowEvery requests; with ingest it is one past the newest
// posted timestamp, and every fifth op posts the stream's next 32
// edges, 5 % of them shuffled up to 48 places late.
func (e *serveEnv) genOps(seed uint64) error {
	rng := tensor.NewRNG(seed*0x2545f4914f6cdd1d + 7)
	edges := e.ds.Graph.Edges()
	stream := edges[len(edges):]
	e.preload = edges
	if e.w.Ingest {
		e.preload, stream = edges[:len(edges)/2], edges[len(edges)/2:]
	}

	pool := make([]int32, poolTargets)
	for i := range pool {
		ed := e.preload[rng.Intn(len(e.preload))]
		pool[i] = ed.Src
		if i%2 == 1 {
			pool[i] = ed.Dst
		}
	}
	cum := make([]float64, poolTargets)
	var total float64
	for i := range cum {
		total += 1 / float64(i+1)
		cum[i] = total
	}
	draw := func() int32 {
		return pool[sort.SearchFloat64s(cum, rng.Float64()*total)]
	}

	// The ingest stream: chronological, then 5 % of edges moved late.
	type keyed struct {
		key float64
		e   graph.Edge
	}
	order := make([]keyed, len(stream))
	for i, ed := range stream {
		order[i] = keyed{key: float64(i), e: ed}
		if rng.Float64() < 0.05 {
			order[i].key += float64(1+rng.Intn(48)) + 0.5
		}
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].key < order[j].key })

	n := e.warm + e.nA + e.nB + e.nProbe
	e.ops = make([]sop, 0, n)
	now := e.ds.Graph.MaxTime() + 1
	clock := e.preload[len(e.preload)-1].Time
	if e.w.Ingest {
		now = clock + 1
	}
	reads, next := 0, 0
	for i := 0; i < n; i++ {
		if e.w.Ingest && i%5 == 0 {
			if next+ingestEdges > len(order) {
				return fmt.Errorf("%s: op log needs more than the %d edges left to ingest", e.w.Name, len(order))
			}
			o := sop{kind: opIngest, path: "/v1/ingest", seq: e.numIngest}
			for _, k := range order[next : next+ingestEdges] {
				o.edges = append(o.edges, k.e)
				late := k.e.Time < clock
				o.late = append(o.late, late)
				if late && clock-k.e.Time >= e.lateness {
					e.lateness = clock - k.e.Time + 1
				}
				if k.e.Time > clock {
					clock = k.e.Time
				}
			}
			next += ingestEdges
			now = clock + 1
			e.numIngest++
			e.ops = append(e.ops, o)
			continue
		}
		o := sop{kind: opEmbed, path: "/v1/embed", nodes: make([]int32, embedTargets), ts: make([]float64, embedTargets)}
		if reads%4 == 3 {
			o.kind, o.path = opScore, "/v1/score"
		}
		if !e.w.Ingest {
			now = e.ds.Graph.MaxTime() + 1 + float64(reads/nowEvery)
		}
		for j := range o.nodes {
			o.nodes[j], o.ts[j] = draw(), now
		}
		reads++
		e.ops = append(e.ops, o)
	}
	for i := range e.ops {
		if err := e.ops[i].encode(); err != nil {
			return err
		}
	}
	return nil
}

type edgeJSON struct {
	Src  int32   `json:"src"`
	Dst  int32   `json:"dst"`
	Time float64 `json:"time"`
	Idx  int32   `json:"idx,omitempty"`
}

func (o *sop) encode() (err error) {
	o.span = "http " + o.path
	switch o.kind {
	case opEmbed:
		o.body, err = json.Marshal(map[string]any{"nodes": o.nodes, "times": o.ts})
	case opScore:
		pairs := make([]edgeJSON, scorePairs)
		for i := range pairs {
			pairs[i] = edgeJSON{Src: o.nodes[i], Dst: o.nodes[scorePairs+i], Time: o.ts[i]}
		}
		o.body, err = json.Marshal(map[string]any{"pairs": pairs})
	case opIngest:
		es := make([]edgeJSON, len(o.edges))
		for i, ed := range o.edges {
			es[i] = edgeJSON{Src: ed.Src, Dst: ed.Dst, Time: ed.Time, Idx: ed.Idx}
		}
		o.body, err = json.Marshal(map[string]any{"edges": es})
	}
	return err
}

func (e *serveEnv) opLogHash() string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range e.ops {
		o := &e.ops[i]
		put(uint64(o.kind))
		for j := range o.nodes {
			put(uint64(o.nodes[j]))
			put(math.Float64bits(o.ts[j]))
		}
		for _, ed := range o.edges {
			put(uint64(ed.Src)<<32 | uint64(uint32(ed.Dst)))
			put(math.Float64bits(ed.Time))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// setupServe is everything setup_s covers for a serving workload:
// dataset generation, model, op log, graph load, server start and the
// warm-up replay through the loopback listener.
func setupServe(w *workload, cfg runConfig, h *hostRef) (*serveEnv, error) {
	ds, err := datasetFor(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	model, err := tgat.NewModel(w.modelConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		w: w, ds: ds, model: model,
		warm: w.WarmOps, nA: opCount(w.ClosedPerSec, cfg.Seconds), nB: opCount(w.OpenPerSec, cfg.Seconds),
		nProbe: w.ProbeOps, // generated on every run so the op log is one; sent only by the traced run
	}
	if err := e.genOps(cfg.Seed); err != nil {
		return nil, err
	}
	if e.dyn, err = e.loadGraph(); err != nil {
		return nil, err
	}
	if w.Shards > 0 {
		e.srv, err = serve.NewSharded(model, e.dyn, w.engineOptions(), shard.Config{Shards: w.Shards})
		if err != nil {
			return nil, err
		}
	} else {
		e.srv = serve.New(model, e.dyn, w.engineOptions())
		e.srv.SetBatching(batcher.Config{Window: batcher.DefaultWindow, MaxBatch: batcher.DefaultMaxBatch})
	}
	e.handler = e.srv.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.handler}
	e.served = make(chan struct{})
	go func() {
		defer close(e.served)
		_ = e.hs.Serve(ln) // returns ErrServerClosed when close() stops it
	}()
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}

	if res := e.drive(0, e.warm, 0, h, nil, nil); res.Failed > 0 {
		e.close()
		return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", w.Name, res.Failed, e.warm)
	}
	return e, nil
}

// loadGraph builds a dynamic graph holding the preloaded edges, with
// the lateness window the op log's late edges need.
func (e *serveEnv) loadGraph() (*graph.Dynamic, error) {
	dyn := graph.NewDynamic(e.ds.Graph.NumNodes())
	if e.w.Ingest {
		dyn.SetLateness(e.lateness)
	}
	for _, ed := range e.preload {
		if _, err := dyn.Append(ed); err != nil {
			return nil, err
		}
	}
	return dyn, nil
}

// close stops the listener and the server's workers and waits for them.
func (e *serveEnv) close() {
	_ = e.hs.Close()
	<-e.served
	e.client.CloseIdleConnections()
	_ = e.srv.Close()
}

func (e *serveEnv) engines() []*core.Engine {
	if r := e.srv.Router(); r != nil {
		return r.Engines()
	}
	return []*core.Engine{e.srv.Engine()}
}

func (e *serveEnv) layerStats() []core.LayerCacheStats {
	if r := e.srv.Router(); r != nil {
		return r.LayerCacheStats()
	}
	return e.srv.Engine().LayerCacheStats()
}

func (e *serveEnv) cacheLen() (n int) {
	for _, eng := range e.engines() {
		n += eng.CacheLen()
	}
	return n
}

// post sends one op over loopback HTTP and reads the whole reply.
func (e *serveEnv) post(o *sop) (int, []byte, error) {
	resp, err := e.client.Post(e.url+o.path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// awaitTurn holds an ingest op until the one before it has been
// answered: with two connections the stream would otherwise reach the
// server in an order the seed did not choose.
func (e *serveEnv) awaitTurn(o *sop) {
	for e.ingestDone.Load() < int64(o.seq) {
		time.Sleep(50 * time.Microsecond)
	}
}

// driven is what a closed- or open-loop phase yields beyond the phase
// numbers: reply bodies kept for the output check, status classes,
// reply bytes of read ops, what /v1/ingest reported, and how the
// open-loop generator kept to its schedule.
type driven struct {
	phase
	Bodies                         map[int][]byte
	Status2xx, Status429, Status5x int
	RespBytes                      int
	ReadLatMs                      float64 // summed over read ops, at reference host speed
	Reads                          int
	Edges, Late, Dropped, Invalid  int
	GenLate, Backlog               int
	Rate                           float64
}

type ingestReply struct {
	Accepted    int `json:"accepted"`
	Late        int `json:"late"`
	Dropped     int `json:"dropped"`
	Invalidated int `json:"invalidated"`
}

// opResult is one request as a client saw it.
type opResult struct {
	op      int
	status  int
	err     error
	ms      float64
	bytes   int
	body    []byte // kept only for the output check
	reply   ingestReply
	genLate bool // the generator overslept the due time by over 1 ms
	backlog bool // both connections were busy when the op fell due
}

// segmentOps is how many requests run between two host-speed probes:
// both clients stop, the reference kernel runs, and the segment's
// times are divided by the slowdown it saw. 64 requests are 30 to
// 100 ms.
const segmentOps = nowEvery

// drive sends ops[lo:hi] through loopback HTTP on two connections.
// rate 0 is the closed loop: each client sends its next request when
// the previous one is answered. rate > 0 is the open loop, in requests
// per second of reference host time: a segment starting while the host
// runs f times slower is scheduled at rate/f, so the offered load stays
// the same share of what the box can do just then. Within a segment op
// k is due at the segment's start + k·f/rate whatever the server does,
// and its latency is timed from that instant, so a stall is charged to
// every request it delays.
func (e *serveEnv) drive(lo, hi int, rate float64, h *hostRef, tr *tracer, keep map[int]bool) *driven {
	d := &driven{Bodies: map[int][]byte{}, Rate: rate}
	m0 := mallocs()
	ref := h.probe()
	for s := lo; s < hi; s += segmentOps {
		end := s + segmentOps
		if end > hi {
			end = hi
		}
		cpu0 := cpuMillis()
		t0 := time.Now()
		results := e.segment(s, end, rate/ref, tr, keep)
		wall := time.Since(t0)
		cpu := cpuMillis() - cpu0
		next := h.probe()
		f := slowdown(ref, next)
		ref = next
		d.span(wall, cpu, f)
		lats := make([]float64, len(results))
		before := d.Targets
		for i := range results {
			d.record(e.w, &e.ops[results[i].op], &results[i], f)
			lats[i] = results[i].ms / f
		}
		if len(results) == segmentOps {
			d.SegWall = append(d.SegWall, wall.Seconds()/f)
			d.SegTargets += d.Targets - before
			d.SegP50 = append(d.SegP50, percentile(lats, 0.50))
			d.SegP90 = append(d.SegP90, percentile(lats, 0.90))
		}
	}
	d.Mallocs = mallocs() - m0
	return d
}

// segment runs ops[lo:hi] on the two connections and returns when both
// are idle again.
func (e *serveEnv) segment(lo, hi int, rate float64, tr *tracer, keep map[int]bool) []opResult {
	results := make([]opResult, hi-lo)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if lo+k >= hi {
					return
				}
				o, r := &e.ops[lo+k], &results[k]
				r.op = lo + k
				t0 := time.Now()
				if rate > 0 {
					due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					if due.After(t0) {
						sleepUntil(due)
						r.genLate = time.Since(due) > time.Millisecond
					} else {
						r.backlog = true
					}
					t0 = due
				}
				if o.kind == opIngest {
					e.awaitTurn(o)
				}
				sp := tr.begin(o.span, r.op, -1)
				var body []byte
				r.status, body, r.err = e.post(o)
				tr.end(sp)
				r.ms = float64(time.Since(t0)) / float64(time.Millisecond)
				r.bytes = len(body)
				if o.kind == opIngest {
					e.ingestDone.Store(int64(o.seq) + 1)
					if r.err == nil {
						r.err = json.Unmarshal(body, &r.reply)
					}
				}
				if keep[r.op] {
					r.body = body
				}
			}
		}()
	}
	wg.Wait()
	return results
}

// sleepUntil returns at due, not a timer's wake-up later: with both
// CPUs busy a sleeping goroutine wakes 0.3 to 1 ms late, a third of a
// request's latency here. It sleeps to within 400 µs and then yields in
// a loop, which lets the server's goroutines run but gets the clock
// checked again as soon as they pause.
func sleepUntil(due time.Time) {
	if wait := time.Until(due) - 400*time.Microsecond; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

func (d *driven) record(w *workload, o *sop, r *opResult, f float64) {
	ok := r.err == nil && r.status/100 == 2
	d.op(r.ms, f, w.LatLimitMs, ok)
	switch {
	case ok:
		d.Status2xx++
	case r.status == http.StatusTooManyRequests:
		d.Status429++
	case r.status/100 == 5:
		d.Status5x++
	}
	if r.genLate {
		d.GenLate++
	}
	if r.backlog {
		d.Backlog++
	}
	if r.body != nil {
		d.Bodies[r.op] = r.body
	}
	if o.kind == opIngest {
		if ok {
			d.Edges += len(o.edges)
			d.Late += r.reply.Late
			d.Dropped += r.reply.Dropped
			d.Invalid += r.reply.Invalidated
		}
		return
	}
	d.Targets += len(o.nodes)
	d.RespBytes += r.bytes
	d.ReadLatMs += r.ms / f
	d.Reads++
}

// measure runs phase A (closed loop, fixed request count) and phase B
// (open loop at half of this run's phase-A request rate, both in
// reference host time, so utilisation stays fixed while the host's
// speed drifts), then gathers the answers for the output check.
func (e *serveEnv) measure(seed uint64, h *hostRef, tr *tracer) (a, b *driven, ans *answers, err error) {
	lo := e.warm
	picks := e.pickTargets(seed, lo, lo+e.nA+e.nB)
	var keep map[int]bool
	if !e.w.Ingest {
		keep = map[int]bool{}
		for _, p := range picks {
			keep[p.op] = true
		}
	}
	runtime.GC()
	a = e.drive(lo, lo+e.nA, 0, h, tr, keep)
	rate := 0.5 * segmentOps / median(a.SegWall)
	b = e.drive(lo+e.nA, lo+e.nA+e.nB, rate, h, tr, keep)
	for i, body := range b.Bodies {
		a.Bodies[i] = body
	}
	ans, err = e.collect(picks, a.Bodies)
	return a, b, ans, err
}

// pick names one target of a read op: a row of an embed reply, or one
// pair of a score reply (row < scorePairs).
type pick struct{ op, row int }

// pickTargets draws checkTargets targets from the measured reads of the
// op log: rows of embed requests, and for every eighth pick a scored
// pair instead.
func (e *serveEnv) pickTargets(seed uint64, lo, hi int) []pick {
	rng := tensor.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	var picks []pick
	for len(picks) < checkTargets {
		i := lo + rng.Intn(hi-lo)
		switch e.ops[i].kind {
		case opEmbed:
			picks = append(picks, pick{i, rng.Intn(embedTargets)})
		case opScore:
			if len(picks)%8 == 0 {
				picks = append(picks, pick{i, rng.Intn(scorePairs)})
			}
		}
	}
	return picks
}

// collect turns picks into answers. Read-only, the graph never changes,
// so the replies kept during the measured phases are the answers. With
// ingest, an answer given mid-stream is not the answer on the final
// graph, so once the server is quiet each picked request is sent again
// and that reply is checked: it must reflect every late edge since.
func (e *serveEnv) collect(picks []pick, bodies map[int][]byte) (*answers, error) {
	ans := &answers{}
	for _, p := range picks {
		o := &e.ops[p.op]
		body, ok := bodies[p.op]
		if !ok {
			status, b, err := e.post(o)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("%s: re-asking op %d: status %d: %v", e.w.Name, p.op, status, err)
			}
			body = b
			bodies[p.op] = b
		}
		if o.kind == opEmbed {
			var r struct {
				Embeddings [][]float32 `json:"embeddings"`
			}
			if err := json.Unmarshal(body, &r); err != nil || len(r.Embeddings) != embedTargets {
				return nil, fmt.Errorf("%s: op %d: unreadable embed reply: %v", e.w.Name, p.op, err)
			}
			ans.add(o.nodes[p.row], o.ts[p.row], r.Embeddings[p.row])
			continue
		}
		var r struct {
			Logits []float64 `json:"logits"`
		}
		if err := json.Unmarshal(body, &r); err != nil || len(r.Logits) != scorePairs {
			return nil, fmt.Errorf("%s: op %d: unreadable score reply: %v", e.w.Name, p.op, err)
		}
		s := ans.add(o.nodes[p.row], o.ts[p.row], nil)
		d := ans.add(o.nodes[scorePairs+p.row], o.ts[p.row], nil)
		ans.Pairs = append(ans.Pairs, [2]int{s, d})
		ans.Logits = append(ans.Logits, r.Logits[p.row])
	}
	return ans, nil
}

func (e *serveEnv) check(ans *answers, h *hostRef) checkResult {
	return checkAnswers(e.model, graph.NewDynamicSampler(e.dyn, e.w.K, graph.MostRecent, 0), ans, h)
}

// runServe runs one serving workload and fills its record.
func runServe(w *workload, cfg runConfig) (*record, error) {
	rec := newRecord(w, cfg)
	h := newHostRef()
	defer h.close()
	rec.Layers["bench.host_calib_ms_before"] = h.hostCalib()
	var env *serveEnv
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		if env != nil {
			env.close()
			env = nil
		}
		runtime.GC()
		err := timeSetup(h, &setups, func() (err error) {
			env, err = setupServe(w, cfg, h)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	rec.OpLogHash = env.opLogHash()
	rec.Ops = map[string]int{"warm_requests": env.warm, "closed_loop_requests": env.nA, "open_loop_requests": env.nB, "probe_requests": w.ProbeOps}

	plainA, plainB, ans, err := env.measure(cfg.Seed, h, nil)
	if err != nil {
		env.close()
		return nil, err
	}
	chk := env.check(ans, h)
	env.close()
	rec.finish(setups, &plainA.phase, &plainB.phase, chk)

	if cfg.Trace {
		env = nil
		runtime.GC()
		if env, err = setupServe(w, cfg, h); err != nil {
			return nil, err
		}
		defer env.close()
		if err := env.traced(rec, plainA, h); err != nil {
			return nil, err
		}
	}
	rec.Layers["bench.host_calib_ms_after"] = h.hostCalib()
	return rec, nil
}

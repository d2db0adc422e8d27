package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/tensor"
)

// traced is the separate traced run: the same phases with a span around
// every request, then the depth probes, the leaf replay and the write
// path probes, reconciled top-down.
func (e *serveEnv) traced(rec *record, plainA *driven, h *hostRef) error {
	tr := newTracer()
	before, items := e.layerStats(), e.cacheLen()
	a, b, ans, err := e.measure(rec.Seed, h, tr)
	if err != nil {
		return err
	}
	after := e.layerStats()
	chk := e.check(ans, h)
	rec.addCheck(chk)

	l := rec.Layers
	targets := float64(a.Targets + b.Targets)
	memoRatios(l, before, after)
	l["core.evictions_per_target"] = ratio(evictions(before, after, e.cacheLen()-items), targets)
	for _, eng := range e.engines() {
		l["core.cache_bytes"] += float64(eng.CacheBytes())
	}
	l["tgat.baseline_us_per_target"] = chk.BaselineUs
	l["bench.trace_overhead_frac"] = ratio(a.NormWall, plainA.NormWall) - 1
	l["serve.resp_bytes_per_target"] = ratio(float64(a.RespBytes+b.RespBytes), targets)
	l["serve.offered_rps"] = b.Rate
	l["serve.gen_late_frac"] = ratio(float64(b.GenLate), float64(b.Ops))
	l["serve.backlog_frac"] = ratio(float64(b.Backlog), float64(b.Ops))
	l["serve.status_2xx"] = float64(a.Status2xx + b.Status2xx)
	l["serve.status_429"] = float64(a.Status429 + b.Status429)
	l["serve.status_5xx"] = float64(a.Status5x + b.Status5x)
	edges := float64(a.Edges + b.Edges)
	l["graph.late_frac"] = ratio(float64(a.Late+b.Late), edges)
	l["graph.dropped_frac"] = ratio(float64(a.Dropped+b.Dropped), edges)
	l["core.invalidated_per_edge"] = ratio(float64(a.Invalid+b.Invalid), edges)
	if bt := e.srv.Batcher(); bt != nil {
		l["batcher.queue_wait_p50_us"] = float64(bt.QueueWait().Quantile(0.5)) / 1e3
		l["batcher.occupancy_mean"] = bt.Occupancy().Mean()
		l["batcher.coalesce_ratio"] = bt.Stats().CoalesceRatio()
	}
	if r := e.srv.Router(); r != nil {
		st := r.Stats()
		var calls []float64
		for _, s := range st.Shards {
			calls = append(calls, float64(s.Calls))
		}
		sort.Float64s(calls)
		l["shard.leg_skew"] = ratio(calls[len(calls)-1], mean(calls)) - 1
		l["shard.fallbacks"] = float64(st.RoutedAround)
		l["shard.hedges"] = float64(st.Hedges)
	}

	us, engineUs, inputs, err := e.probeDepths(tr, h)
	if err != nil {
		return err
	}
	l["serve.engine_us_per_req"] = us[3]
	if e.w.Shards > 0 {
		l["shard.router_self_us_per_req"] = us[2] - us[3]
	} else {
		l["batcher.self_us_per_req"] = us[2] - us[3]
	}
	l["serve.handler_self_us_per_req"] = us[1] - us[2]
	l["serve.transport_us_per_req"] = us[0] - us[1]
	l["core.embed_us_per_target"] = engineUs / embedTargets
	l["tgat.speedup_vs_baseline"] = ratio(chk.BaselineUs, l["core.embed_us_per_target"])
	// One request alone takes us[0]; with a second client beside it the
	// closed loop's mean read latency is higher. The gap is contention
	// for the two CPUs, queueing in the batcher, and the score head.
	closedUs := ratio(a.ReadLatMs*1e3, float64(a.Reads))
	l["serve.residual_frac"] = ratio(closedUs-us[0], closedUs)
	rec.Notes = append(rec.Notes, fmt.Sprintf(
		"request %.0f us closed-loop = engine %.0f + batcher/router %.0f + handler %.0f + transport %.0f + residual %.0f",
		closedUs, us[3], us[2]-us[3], us[1]-us[2], us[0]-us[1], closedUs-us[0]))

	sampler := graph.NewDynamicSampler(e.dyn, e.w.K, graph.MostRecent, 0)
	newLeafEnv(e.model, sampler, e.engines()[0]).replay(inputs, h).into(l)
	if e.w.Ingest {
		if err := e.probeIngest(l, h); err != nil {
			return err
		}
	}
	return tr.write(traceDir, e.w.Name)
}

// depthNames are the four entry depths the traced run's probe ops
// rotate through against the one warmed server. Adjacent depths differ
// by exactly one layer, so over exchangeable ops the difference of
// their mean times is that layer's self time.
var depthNames = [4]string{"depth0 loopback HTTP", "depth1 Handler.ServeHTTP", "depth2 Batcher/Router.Embed", "depth3 Engine.EmbedWith"}

// probeDepths sends the probe ops one at a time, reads rotating through
// the four depths and ingests through the first two, and returns the
// mean microseconds per read at each depth, the mean engine time of a
// depth-3 read summed over its shards, and the depth-3 ops as leaf
// inputs (for a sharded server, the share of each op that shard 0
// owns, since leaves are replayed against one engine).
func (e *serveEnv) probeDepths(tr *tracer, h *hostRef) (readUs [4]float64, engineUs float64, inputs []leafInput, err error) {
	lo := e.warm + e.nA + e.nB
	var sum [4]time.Duration
	var cnt [4]int
	var engine time.Duration // summed over every engine call of the depth-3 ops
	reads, ingests := 0, 0
	ctx := context.Background()
	ar := tensor.NewArena()
	m := h.mark()
	for i := lo; i < lo+e.nProbe; i++ {
		if (i-lo)%16 == 0 {
			h.probe()
		}
		o := &e.ops[i]
		// Reads between two ingests, or after a step of "now", get
		// warmer one by one; shifting the rotation by one every fourth
		// read puts every depth in every position equally often.
		depth := (reads + reads/4) % 4
		if o.kind == opIngest {
			depth = ingests % 2
			ingests++
		} else {
			reads++
		}
		sp := tr.begin(depthNames[depth], i, -1)
		t0 := time.Now()
		switch depth {
		case 0:
			status, _, perr := e.post(o)
			if perr != nil || status != http.StatusOK {
				err = fmt.Errorf("probe op %d: status %d: %v", i, status, perr)
			}
		case 1:
			rec := httptest.NewRecorder()
			e.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
			if rec.Code != http.StatusOK {
				err = fmt.Errorf("probe op %d: handler status %d", i, rec.Code)
			}
		case 2:
			if r := e.srv.Router(); r != nil {
				_, err = r.Embed(ctx, o.nodes, o.ts)
			} else {
				_, err = e.srv.Batcher().Embed(ctx, o.nodes, o.ts)
			}
		}
		el := time.Since(t0)
		if depth == 3 {
			in, longest, all := e.embedDirect(ar, o)
			inputs = append(inputs, in...)
			el = longest
			engine += all
		}
		tr.end(sp)
		if err != nil {
			return readUs, 0, nil, err
		}
		if o.kind != opIngest {
			sum[depth] += el
			cnt[depth]++
		}
	}
	h.probe()
	f := h.factorSince(m)
	for d := range readUs {
		readUs[d] = ratio(float64(sum[d])/1e3/f, float64(cnt[d]))
	}
	for i := range inputs {
		inputs[i].SpanNs = int64(float64(inputs[i].SpanNs) / f)
	}
	return readUs, ratio(float64(engine)/1e3/f, float64(cnt[3])), inputs, nil
}

// embedDirect is depth 3: the op's targets straight into
// Engine.EmbedWith — one call unsharded, one call per owning shard
// otherwise. The time returned is the engine's alone (reading the cache
// counters around it is the probe's cost), and the longest call's where
// there are several: the router runs its legs side by side, so what it
// adds is measured against the leg it has to wait for.
func (e *serveEnv) embedDirect(ar *tensor.Arena, o *sop) (inputs []leafInput, longest, sum time.Duration) {
	engs := e.engines()
	groups := make([][]int, len(engs))
	for j, v := range o.nodes {
		s := 0
		if r := e.srv.Router(); r != nil {
			s = r.Owner(v)
		}
		groups[s] = append(groups[s], j)
	}
	for s, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		nodes := make([]int32, len(idxs))
		ts := make([]float64, len(idxs))
		for j, i := range idxs {
			nodes[j], ts[j] = o.nodes[i], o.ts[i]
		}
		before := layerMisses(e.w.Layers, engs[s:s+1])
		ar.Reset()
		t0 := time.Now()
		engs[s].EmbedWith(ar, nodes, ts)
		el := time.Since(t0)
		sum += el
		if el > longest {
			longest = el
		}
		if s != 0 {
			continue
		}
		after := layerMisses(e.w.Layers, engs[:1])
		for l := range after {
			after[l] -= before[l]
		}
		inputs = append(inputs, leafInput{Nodes: nodes, Times: ts, Misses: after, SpanNs: int64(el)})
	}
	return inputs, longest, sum
}

// probeIngest prices the write path outside the server. A scratch
// replica of the preloaded graph takes the op log's edges through
// Dynamic.Ingest, and a scratch 2-shard router replicates them through
// Router.Apply, as /v1/ingest does. Then — last of all, because it
// empties cache entries — the live engine of shard 0 is asked to
// invalidate for the probe region's edges, late ones through
// InvalidateLateEdge and the rest through InvalidateAppend, against
// the target indexes the run filled.
func (e *serveEnv) probeIngest(m metricSet, h *hostRef) error {
	mark := h.mark()
	h.probe()
	dyn, err := e.loadGraph()
	if err != nil {
		return err
	}
	router, err := shard.NewRouter(e.model, dyn, e.w.engineOptions(), shard.Config{Shards: e.w.Shards})
	if err != nil {
		return err
	}
	defer router.Close()
	var ingestNs, applyNs time.Duration
	edges := 0
	for i := range e.ops {
		for _, ed := range e.ops[i].edges {
			t0 := time.Now()
			res, _, err := dyn.Ingest(ed)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if res != graph.IngestDropped {
				router.Apply(ed, res)
			}
			applyNs += time.Since(t1)
			ingestNs += t1.Sub(t0)
			edges++
		}
	}
	h.probe()
	f := h.factorSince(mark)
	m["graph.ingest_us_per_edge"] = ratio(float64(ingestNs)/1e3/f, float64(edges))
	m["shard.apply_us_per_edge"] = ratio(float64(applyNs)/1e3/f, float64(edges))

	eng := e.engines()[0]
	var invNs time.Duration
	edges = 0
	for i := e.warm + e.nA + e.nB; i < len(e.ops); i++ {
		o := &e.ops[i]
		for j, ed := range o.edges {
			t0 := time.Now()
			if o.late[j] {
				eng.InvalidateLateEdge(ed.Src, ed.Dst, ed.Time)
			} else {
				eng.InvalidateAppend(ed.Src, ed.Dst, ed.Time)
			}
			invNs += time.Since(t0)
			edges++
		}
	}
	f = slowdown(h.samples[len(h.samples)-1], h.probe())
	m["core.invalidate_us_per_edge"] = ratio(float64(invNs)/1e3/f, float64(edges))
	return nil
}

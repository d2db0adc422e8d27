package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// streamEnv is one set-up of a stream workload: the generated dataset,
// the model, the engine and its warmed cache, and the driver's buffers.
// An op is one batch of 200 edges: 400 targets embedded, 200 pairs
// scored, driven one at a time through Engine.EmbedWith and
// Engine.ScoreWith as tgat.StreamInferenceArenaScored drives them.
type streamEnv struct {
	w       *workload
	ds      *dataset.Dataset
	model   *tgat.Model
	sampler *graph.Sampler
	eng     *core.Engine
	edges   []graph.Edge
	warm    int // batches replayed in set-up
	n       int // batches measured

	ar    *tensor.Arena
	nodes []int32
	ts    []float64
}

// datasetFor generates the workload's dataset from the run's seed: the
// same seed gives the same graph, features and op log.
func datasetFor(w *workload, seed uint64) (*dataset.Dataset, error) {
	spec, err := dataset.SpecByName(w.Dataset)
	if err != nil {
		return nil, err
	}
	spec = spec.Scale(w.Scale)
	spec.Seed = spec.Seed*1_000_003 + seed
	return dataset.Generate(spec, dataset.Options{FeatureDim: modelDim})
}

func (w *workload) engineOptions() core.Options {
	opt := core.OptAll()
	if w.CacheLimit > 0 {
		opt.CacheLimit = w.CacheLimit
	}
	return opt
}

// setupStream is everything setup_s covers for a stream workload:
// dataset generation, model, graph load, engine, and the warm-up replay
// of the first WarmFrac of the stream. It samples host speed as it goes.
func setupStream(w *workload, cfg runConfig, h *hostRef) (*streamEnv, error) {
	ds, err := datasetFor(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	model, err := tgat.NewModel(w.modelConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		return nil, err
	}
	e := &streamEnv{
		w: w, ds: ds, model: model, edges: ds.Graph.Edges(),
		sampler: graph.NewSampler(ds.Graph, w.K, graph.MostRecent, 0),
		ar:      tensor.NewArena(),
		nodes:   make([]int32, 2*batchEdges),
		ts:      make([]float64, 2*batchEdges),
	}
	e.eng = core.NewEngine(model, e.sampler, w.engineOptions())
	total := len(e.edges) / batchEdges
	e.warm = int(w.WarmFrac * float64(total))
	e.n = opCount(w.ClosedPerSec, cfg.Seconds)
	if e.n > total-e.warm {
		e.n = total - e.warm
	}
	if e.n < 1 {
		return nil, fmt.Errorf("%s: stream of %d batches leaves nothing to measure", w.Name, total)
	}
	h.probe()
	for bi := 0; bi < e.warm; bi++ {
		e.batch(bi, nil, nil)
		if bi%4 == 3 || bi == e.warm-1 {
			h.probe()
		}
	}
	return e, nil
}

// batch embeds and scores batch bi: sources packed before destinations
// with duplicated timestamps, the batching rule of the paper's §3.1.
func (e *streamEnv) batch(bi int, tr *tracer, keep func(h, logits *tensor.Tensor)) time.Duration {
	b := e.edges[bi*batchEdges : (bi+1)*batchEdges]
	for i, ed := range b {
		e.nodes[i], e.nodes[batchEdges+i] = ed.Src, ed.Dst
		e.ts[i], e.ts[batchEdges+i] = ed.Time, ed.Time
	}
	d := modelDim
	t0 := time.Now()
	op := tr.begin("op", bi, -1)
	e.ar.Reset()
	sp := tr.begin("Engine.EmbedWith", bi, op)
	h := e.eng.EmbedWith(e.ar, e.nodes, e.ts)
	tr.end(sp)
	sp = tr.begin("Engine.ScoreWith", bi, op)
	logits := e.eng.ScoreWith(e.ar, e.ar.Wrap(h.Data()[:batchEdges*d], batchEdges, d), e.ar.Wrap(h.Data()[batchEdges*d:], batchEdges, d))
	tr.end(sp)
	tr.end(op)
	el := time.Since(t0)
	if keep != nil {
		keep(h, logits)
	}
	return el
}

// opLogHash identifies the inputs: every edge of the warm-up and
// measured batches, in order.
func (e *streamEnv) opLogHash() string {
	h := fnv.New64a()
	var buf [20]byte
	for _, ed := range e.edges[:(e.warm+e.n)*batchEdges] {
		binary.LittleEndian.PutUint32(buf[0:], uint32(ed.Src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(ed.Dst))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(ed.Time))
		binary.LittleEndian.PutUint32(buf[16:], uint32(ed.Idx))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// measure drives the measured batches. It keeps the rows and logits the
// engine returned for checkTargets/2 edges drawn from the op log, and,
// when tracing, records every recordEvery-th batch for the leaf probes.
func (e *streamEnv) measure(seed uint64, h *hostRef, tr *tracer) (*phase, *answers, []leafInput) {
	rng := tensor.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	picks := make([][]int, e.n)
	for i := 0; i < checkTargets/2; i++ {
		bi := rng.Intn(e.n)
		picks[bi] = append(picks[bi], rng.Intn(batchEdges))
	}
	ans := &answers{}
	var inputs []leafInput
	engs := []*core.Engine{e.eng}

	p := &phase{}
	runtime.GC()
	m0 := mallocs()
	ref := h.probe()
	for i := 0; i < e.n; i++ {
		bi := e.warm + i
		var keep func(h, logits *tensor.Tensor)
		if picks[i] != nil {
			keep = func(h, logits *tensor.Tensor) {
				for _, j := range picks[i] {
					ed := e.edges[bi*batchEdges+j]
					s := ans.add(ed.Src, ed.Time, h.Row(j))
					d := ans.add(ed.Dst, ed.Time, h.Row(batchEdges+j))
					ans.Pairs = append(ans.Pairs, [2]int{s, d})
					ans.Logits = append(ans.Logits, float64(logits.At(j, 0)))
				}
			}
		}
		record := tr != nil && i%recordEvery == 0
		var before []int
		if record {
			before = layerMisses(e.w.Layers, engs)
		}
		cpu0 := cpuMillis()
		el := e.batch(bi, tr, keep)
		cpu := cpuMillis() - cpu0
		next := h.probe()
		f := slowdown(ref, next)
		ref = next
		p.span(el, cpu, f)
		p.op(float64(el)/float64(time.Millisecond), f, e.w.LatLimitMs, true)
		if record {
			after := layerMisses(e.w.Layers, engs)
			for l := range after {
				after[l] -= before[l]
			}
			sp := tr.spans[len(tr.spans)-2] // Engine.EmbedWith of this batch
			inputs = append(inputs, leafInput{
				Nodes:  append([]int32(nil), e.nodes...),
				Times:  append([]float64(nil), e.ts...),
				Misses: after,
				SpanNs: int64(float64(sp.End-sp.Start) / f),
			})
		}
	}
	p.Mallocs = mallocs() - m0
	p.Targets = e.n * 2 * batchEdges
	return p, ans, inputs
}

// runStream runs one stream workload and fills its record.
func runStream(w *workload, cfg runConfig) (*record, error) {
	rec := newRecord(w, cfg)
	h := newHostRef()
	defer h.close()
	rec.Layers["bench.host_calib_ms_before"] = h.hostCalib()
	var env *streamEnv
	var setups []float64
	for i := 0; i < cfg.setups(); i++ {
		env = nil
		runtime.GC()
		err := timeSetup(h, &setups, func() (err error) {
			env, err = setupStream(w, cfg, h)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	rec.OpLogHash = env.opLogHash()
	rec.Ops = map[string]int{"warm_batches": env.warm, "measured_batches": env.n}

	plain, ans, _ := env.measure(cfg.Seed, h, nil)
	chk := checkAnswers(env.model, env.sampler, ans, h)
	rec.finish(setups, plain, nil, chk)

	if cfg.Trace {
		env = nil
		runtime.GC()
		var err error
		if env, err = setupStream(w, cfg, h); err != nil {
			return nil, err
		}
		tr := newTracer()
		before := env.eng.LayerCacheStats()
		items := env.eng.CacheLen()
		traced, tans, inputs := env.measure(cfg.Seed, h, tr)
		after := env.eng.LayerCacheStats()
		tchk := checkAnswers(env.model, env.sampler, tans, h)
		rec.addCheck(tchk)

		l := rec.Layers
		memoRatios(l, before, after)
		l["core.evictions_per_target"] = ratio(evictions(before, after, env.eng.CacheLen()-items), float64(traced.Targets))
		l["core.cache_bytes"] = float64(env.eng.CacheBytes())
		tot, f := tr.totals(), traced.hostFactor()
		l["core.embed_us_per_target"] = ratio(float64(tot["Engine.EmbedWith"])/1e3/f, float64(traced.Targets))
		l["tgat.score_us_per_edge"] = ratio(float64(tot["Engine.ScoreWith"])/1e3/f, float64(traced.Targets/2))
		l["tgat.baseline_us_per_target"] = tchk.BaselineUs
		l["tgat.speedup_vs_baseline"] = ratio(tchk.BaselineUs, ratio(traced.NormWall*1e6, float64(traced.Targets)))
		l["bench.trace_overhead_frac"] = ratio(traced.NormWall, plain.NormWall) - 1
		newLeafEnv(env.model, env.sampler, env.eng).replay(inputs, h).into(l)
		if err := tr.write(traceDir, w.Name); err != nil {
			return nil, err
		}
	}
	rec.Layers["bench.host_calib_ms_after"] = h.hostCalib()
	return rec, nil
}

// evictions is how many entries left the caches during a pass: every
// miss is stored, so what was neither refused admission nor added to
// the item count pushed an older entry out.
func evictions(before, after []core.LayerCacheStats, itemsAdded int) float64 {
	var misses, rejected int64
	for _, a := range after {
		misses += a.Misses
		rejected += a.AdmitRejected
	}
	for _, b := range before {
		misses -= b.Misses
		rejected -= b.AdmitRejected
	}
	ev := float64(misses-rejected) - float64(itemsAdded)
	if ev < 0 {
		return 0
	}
	return ev
}

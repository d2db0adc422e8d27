// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5): Table 1 (batch duplication), Figure 3
// (reuse vs recompute), Figure 4 (Δt distribution), Figure 5 (end-to-end
// inference runtime), Figure 6 (ablation), Figure 7 (hit-rate
// evolution), Table 3 (operation breakdown), Table 4 (cache-limit
// sweep), and Table 5 (cache placement transfer analysis). Each driver
// prints rows shaped like the paper's artifact output and returns a
// structured result for tests and the benchmark harness.
//
// Workloads are the synthetic Table 2 analogues from internal/dataset,
// shrunk by Setup.Scale so a full reproduction finishes on a laptop;
// cache limits scale along with the data (see EXPERIMENTS.md for the
// mapping to the paper's absolute settings).
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/device"
	"tgopt/internal/graph"
	"tgopt/internal/stats"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// Setup holds the experiment-wide knobs. The paper's settings are
// BatchSize 200, 2 layers, 2 heads, 20 neighbors, d=100, cache limit 2M,
// time window 10k on the full datasets; the drivers' setups shrink data
// size, feature width and neighbor count proportionally so every
// experiment runs in minutes on one core.
type Setup struct {
	Scale      float64 // dataset scale factor
	BatchSize  int
	NodeDim    int // = EdgeDim = TimeDim
	Heads      int
	Layers     int
	K          int // sampled neighbors
	Runs       int // repetitions for runtime experiments
	CacheLimit int // 0 = paper's 2M scaled by Scale
	TimeWindow int
	Seed       uint64
}

// EffectiveCacheLimit resolves the cache limit: explicit value, or the
// paper's 2M scaled with the data (floor 1024).
func (s Setup) EffectiveCacheLimit() int {
	if s.CacheLimit > 0 {
		return s.CacheLimit
	}
	lim := int(core.DefaultCacheLimit * s.Scale)
	if lim < 1024 {
		lim = 1024
	}
	return lim
}

// ModelConfig derives the TGAT configuration.
func (s Setup) ModelConfig() tgat.Config {
	return tgat.Config{
		Layers:       s.Layers,
		Heads:        s.Heads,
		NodeDim:      s.NodeDim,
		EdgeDim:      s.NodeDim,
		TimeDim:      s.NodeDim,
		NumNeighbors: s.K,
		Seed:         s.Seed,
	}
}

// Workload is a loaded dataset plus a model and sampler ready for
// inference.
type Workload struct {
	DS      *dataset.Dataset
	Model   *tgat.Model
	Sampler *graph.Sampler

	batchSize int // 0 = paper default 200
}

// LoadWorkload generates the named Table 2 analogue at the setup's
// scale and builds a model over it. Model parameters are seeded
// pseudo-randomly: inference runtime is weight-independent, and every
// semantics comparison runs baseline and TGOpt with the same weights.
func LoadWorkload(name string, s Setup) (*Workload, error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, err
	}
	spec = spec.Scale(s.Scale)
	ds, err := dataset.Generate(spec, dataset.Options{FeatureDim: s.NodeDim})
	if err != nil {
		return nil, err
	}
	m, err := tgat.NewModel(s.ModelConfig(), ds.NodeFeat, ds.EdgeFeat)
	if err != nil {
		return nil, err
	}
	sampler := graph.NewSampler(ds.Graph, s.K, graph.MostRecent, s.Seed)
	return &Workload{DS: ds, Model: m, Sampler: sampler}, nil
}

// DeviceKind selects the measurement substrate for runtime experiments.
type DeviceKind int

const (
	// CPU measures host wall-clock time.
	CPU DeviceKind = iota
	// GPU runs the same computation on the host and reports its
	// counted work priced on the simulated accelerator (internal/device).
	GPU
)

// String implements fmt.Stringer.
func (d DeviceKind) String() string {
	if d == GPU {
		return "gpu(sim)"
	}
	return "cpu"
}

// RunResult is one inference pass. The engine's per-operation table
// (Engine.Ops) holds what the run counted.
type RunResult struct {
	// Runtime is the measured wall time (CPU) or the run priced with
	// its cache on the host (GPU).
	Runtime time.Duration
	// Ops is each operation's time on the same terms.
	Ops map[stats.Op]time.Duration
	// HitRate has one record per stream batch: the memo caches' hits
	// and lookups during it (Figure 7). A run without a cache has none.
	HitRate *stats.HitRate
	Engine  *core.Engine
}

// RunInference executes the standard inference task once under the
// given options, returning the measured (CPU) or priced (GPU) runtime
// plus all instrumentation.
func RunInference(w *Workload, opt core.Options, kind DeviceKind) *RunResult {
	eng := core.NewEngine(w.Model, w.Sampler, opt)
	hr := stats.NewHitRate(10)
	var seen core.CacheStats
	embed := func(nodes []int32, ts []float64) *tensor.Tensor {
		h := eng.Embed(nodes, ts)
		now := cacheTotals(eng)
		if now.Lookups > seen.Lookups {
			hr.Record(int(now.Hits-seen.Hits), int(now.Lookups-seen.Lookups))
		}
		seen = now
		return h
	}
	start := time.Now()
	tgat.StreamInference(w.DS.Graph, w.Model, batchSizeOf(w), embed)
	res := &RunResult{Runtime: time.Since(start), Ops: eng.Ops().Durations(), HitRate: hr, Engine: eng}
	if kind == GPU {
		p := res.Price(device.CacheOnHost)
		res.Runtime, res.Ops = p.Total, p.Ops
	}
	return res
}

// Price prices the work the run counted on the simulated accelerator,
// with the memoization cache kept at p. Only counts are read, so one
// run prices every placement, the same on every machine.
func (r *RunResult) Price(p device.Placement) device.Priced {
	cfg, opt := r.Engine.Model().Cfg, r.Engine.Options()
	shape := device.Shape{NodeDim: cfg.NodeDim, EdgeDim: cfg.EdgeDim, TimeDim: cfg.TimeDim, K: cfg.NumNeighbors}
	if opt.EnableTimePrecompute {
		shape.TimeWindow = opt.TimeWindow
	}
	return device.Price(device.DefaultCostModel(), shape, p, r.Engine.Ops(), cacheTotals(r.Engine).Hits)
}

// cacheTotals sums the engine's memo-cache counters over its cached
// layers. It reads the counters alone, so an experiment can take it every
// batch.
func cacheTotals(e *core.Engine) core.CacheStats {
	var t core.CacheStats
	for l := 1; l <= e.Model().Cfg.Layers; l++ {
		if c := e.CacheFor(l); c != nil {
			t.Add(c.Stats())
		}
	}
	return t
}

// batchSizeOf lets tests override the batch size per workload via the
// package-level knob without threading Setup everywhere.
func batchSizeOf(w *Workload) int {
	if w.batchSize > 0 {
		return w.batchSize
	}
	return 200
}

// SetBatchSize overrides the inference batch size for this workload.
func (w *Workload) SetBatchSize(n int) { w.batchSize = n }

// MeasureRuns repeats RunInference n times (fresh engine each run, as
// the paper's run-exp.sh does) and returns the runtimes' mean and
// standard deviation, and the rows the run sent through attention (the
// same every run). A GPU runtime is priced from counted work, which
// every run repeats exactly, so on GPU it runs once and std is 0.
func MeasureRuns(w *Workload, opt core.Options, kind DeviceKind, n int) (mean, std time.Duration, attnRows int64) {
	if n < 1 || kind == GPU {
		n = 1
	}
	times := make([]float64, n)
	for i := range times {
		res := RunInference(w, opt, kind)
		times[i] = res.Runtime.Seconds()
		attnRows = res.Engine.Ops().Items(stats.OpAttention)
	}
	var sum float64
	for _, t := range times {
		sum += t
	}
	m := sum / float64(n)
	var varsum float64
	for _, t := range times {
		varsum += (t - m) * (t - m)
	}
	return time.Duration(m * float64(time.Second)),
		time.Duration(math.Sqrt(varsum/float64(n)) * float64(time.Second)), attnRows
}

// fprintf writes formatted output, ignoring nil writers so drivers can
// run silently inside tests and benchmarks.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// baselineOptions returns the instrumented baseline configuration (all
// optimizations off).
func baselineOptions() core.Options { return core.Options{} }

// optAllScaled returns OptAll with the setup's scaled cache limit and
// window.
func optAllScaled(s Setup) core.Options {
	opt := core.OptAll()
	opt.CacheLimit = s.EffectiveCacheLimit()
	opt.TimeWindow = s.TimeWindow
	return opt
}

package experiments

import (
	"io"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/device"
	"tgopt/internal/graph"
	"tgopt/internal/stats"
)

// Table4Cell is one (dataset, cache-limit) measurement: runtime under
// that limit and the cache memory actually used (paper Table 4).
type Table4Cell struct {
	Dataset string
	Limit   int
	Runtime time.Duration
	Bytes   int64
	HitRate float64
	// AttnRows is the number of rows the run sent through attention: the
	// deterministic quantity behind Runtime.
	AttnRows int64
}

// Table4 sweeps the cache limit for each named dataset on the simulated
// GPU (the paper's Table 4 machine). Limits are the paper's
// {10K, 100K, 1M, 3M} scaled by Setup.Scale with a floor of 64, so the
// pressure on the cache matches the shrunken datasets.
func Table4(w io.Writer, s Setup, names []string, kind DeviceKind) ([]Table4Cell, error) {
	paperLimits := []int{10_000, 100_000, 1_000_000, 3_000_000}
	limits := make([]int, len(paperLimits))
	for i, pl := range paperLimits {
		limits[i] = int(float64(pl) * s.Scale)
		if limits[i] < 64 {
			limits[i] = 64
		}
	}
	fprintf(w, "Table 4: runtime and cache memory vs cache limit (%s; paper limits scaled by %g)\n", kind, s.Scale)
	fprintf(w, "%-14s", "dataset")
	for _, l := range limits {
		fprintf(w, " %12d", l)
	}
	fprintf(w, "\n")
	var cells []Table4Cell
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		var rowCells []Table4Cell
		for _, limit := range limits {
			opt := optAllScaled(s)
			opt.CacheLimit = limit
			res := RunInference(wl, opt, kind)
			rowCells = append(rowCells, Table4Cell{
				Dataset: name, Limit: limit,
				Runtime: res.Runtime, Bytes: res.Engine.CacheBytes(),
				HitRate:  res.HitRate.Average(),
				AttnRows: res.Engine.Ops().Items(stats.OpAttention),
			})
		}
		cells = append(cells, rowCells...)
		fprintf(w, "%-14s", name)
		for _, c := range rowCells {
			fprintf(w, " %11.3fs", c.Runtime.Seconds())
		}
		fprintf(w, "\n%-14s", "")
		for _, c := range rowCells {
			fprintf(w, " %10.2fMiB", float64(c.Bytes)/(1<<20))
		}
		fprintf(w, "\n")
	}
	return cells, nil
}

// Table5Result is one dataset's run priced under one cache placement
// (paper Table 5): per-direction transfer accounts, their share of the
// simulated runtime, and the per-op times behind it.
type Table5Result struct {
	Dataset   string
	Placement device.Placement
	device.Priced
}

// Table5 compares host-resident vs device-resident cache storage under
// the simulated accelerator for each named dataset: one TGOpt run per
// dataset, priced under both placements.
func Table5(w io.Writer, s Setup, names []string) ([]Table5Result, error) {
	fprintf(w, "Table 5: simulated data movement by cache placement\n")
	fprintf(w, "%-14s %-8s %22s %22s %22s\n", "dataset", "cache", "HtoD", "DtoH", "DtoD")
	var results []Table5Result
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		res := RunInference(wl, optAllScaled(s), GPU)
		for _, place := range []device.Placement{device.CacheOnHost, device.CacheOnDevice} {
			tr := Table5Result{Dataset: name, Placement: place, Priced: res.Price(place)}
			results = append(results, tr)
			fprintf(w, "%-14s %-8s", name, place)
			for _, d := range []device.Direction{device.HtoD, device.DtoH, device.DtoD} {
				x := tr.Transfers[d]
				fprintf(w, " %9.4fs (%5.2f%%)", x.Time.Seconds(), tr.Pct(d))
			}
			fprintf(w, "\n")
		}
	}
	return results, nil
}

// Figure7Series is the sliding-window hit-rate trajectory of one
// dataset (paper Figure 7; window of 10 batches).
type Figure7Series struct {
	Dataset string
	Rates   []float64
}

// Figure7 runs TGOpt once per dataset and reports the windowed hit-rate
// series.
func Figure7(w io.Writer, s Setup, names []string) ([]Figure7Series, error) {
	var out []Figure7Series
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		res := RunInference(wl, optAllScaled(s), CPU)
		series := Figure7Series{Dataset: name, Rates: res.HitRate.Windowed()}
		out = append(out, series)
		fprintf(w, "Figure 7: cache hit rate evolution (%s, window 10)\n", name)
		step := len(series.Rates)/20 + 1
		for i := 0; i < len(series.Rates); i += step {
			fprintf(w, "lookup %6d: %6.2f%%\n", i, 100*series.Rates[i])
		}
		if n := len(series.Rates); n > 0 {
			fprintf(w, "final: %6.2f%%\n\n", 100*series.Rates[n-1])
		}
	}
	return out, nil
}

// SamplingComparison contrasts most-recent and uniform sampling (a §7
// future-work probe): with uniform sampling the memoization cache is
// unsound, so TGOpt can only apply dedup + time precompute; the row
// reports the achievable speedup under each strategy, and the rows each
// optimized run sent through attention (the deterministic quantity
// behind the speedups: the baselines compute the same rows under either
// strategy).
type SamplingComparison struct {
	Dataset                     string
	MostRecentSpeedup           float64
	UniformSpeedup              float64
	MostRecentRows, UniformRows int64
}

func newUniformSampler(wl *Workload, s Setup) *graph.Sampler {
	return graph.NewSampler(wl.DS.Graph, s.K, graph.Uniform, s.Seed)
}

// CompareSampling measures the optimization headroom per strategy.
func CompareSampling(w io.Writer, s Setup, name string) (*SamplingComparison, error) {
	wl, err := LoadWorkload(name, s)
	if err != nil {
		return nil, err
	}
	wl.SetBatchSize(s.BatchSize)
	base, _, _ := MeasureRuns(wl, baselineOptions(), CPU, s.Runs)
	full, _, fullRows := MeasureRuns(wl, optAllScaled(s), CPU, s.Runs)

	// Uniform sampling: rebuild the workload around a uniform sampler
	// and disable the (unsound) cache.
	uwl := &Workload{DS: wl.DS, Model: wl.Model}
	uwl.Sampler = newUniformSampler(wl, s)
	uwl.SetBatchSize(s.BatchSize)
	ubase, _, _ := MeasureRuns(uwl, baselineOptions(), CPU, s.Runs)
	uopt := core.Options{EnableDedup: true, EnableTimePrecompute: true, TimeWindow: s.TimeWindow}
	ufull, _, uRows := MeasureRuns(uwl, uopt, CPU, s.Runs)

	res := &SamplingComparison{
		Dataset:           name,
		MostRecentSpeedup: float64(base) / float64(full),
		UniformSpeedup:    float64(ubase) / float64(ufull),
		MostRecentRows:    fullRows,
		UniformRows:       uRows,
	}
	fprintf(w, "Sampling ablation (%s): most-recent %.2fx (all opts, %d attention rows) vs uniform %.2fx (dedup+time only, %d rows)\n",
		name, res.MostRecentSpeedup, res.MostRecentRows, res.UniformSpeedup, res.UniformRows)
	return res, nil
}

package experiments

import (
	"io"
	"math"
	"time"
)

// Figure5Row is one dataset's end-to-end inference measurement: the
// baseline (unoptimized TGAT) and TGOpt runtimes with standard
// deviations, and the resulting speedup — one bar pair of the paper's
// Figure 5.
type Figure5Row struct {
	Dataset      string
	Device       DeviceKind
	Baseline     time.Duration
	BaselineStd  time.Duration
	Optimized    time.Duration
	OptimizedStd time.Duration
	// BaselineRows and OptimizedRows are the rows each side sent
	// through attention in one run: the deterministic quantity behind
	// the speedup.
	BaselineRows, OptimizedRows int64
}

// Speedup returns baseline/optimized.
func (r Figure5Row) Speedup() float64 {
	if r.Optimized <= 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Optimized)
}

// Figure5 runs the standard inference task for every named dataset,
// baseline then TGOpt, averaging over Setup.Runs runs (the paper
// averages 10; a GPU price needs one), on the given device kind.
func Figure5(w io.Writer, s Setup, names []string, kind DeviceKind) ([]Figure5Row, error) {
	runs := s.Runs
	if kind == GPU {
		runs = 1
	}
	fprintf(w, "Figure 5: inference runtime, baseline vs TGOpt (%s, %d runs, batch %d)\n",
		kind, runs, s.BatchSize)
	fprintf(w, "%-14s %14s %14s %9s\n", "dataset", "baseline", "tgopt", "speedup")
	var rows []Figure5Row
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		base, baseStd, baseRows := MeasureRuns(wl, baselineOptions(), kind, s.Runs)
		opt, optStd, optRows := MeasureRuns(wl, optAllScaled(s), kind, s.Runs)
		row := Figure5Row{
			Dataset: name, Device: kind,
			Baseline: base, BaselineStd: baseStd,
			Optimized: opt, OptimizedStd: optStd,
			BaselineRows: baseRows, OptimizedRows: optRows,
		}
		rows = append(rows, row)
		fprintf(w, "%-14s %11.3fs±%.2f %11.3fs±%.2f %8.2fx\n",
			name, base.Seconds(), baseStd.Seconds(), opt.Seconds(), optStd.Seconds(), row.Speedup())
	}
	fprintf(w, "geomean speedup: %.2fx\n", geomeanSpeedup(rows))
	return rows, nil
}

func geomeanSpeedup(rows []Figure5Row) float64 {
	if len(rows) == 0 {
		return 0
	}
	prod := 1.0
	for _, r := range rows {
		prod *= r.Speedup()
	}
	return math.Pow(prod, 1/float64(len(rows)))
}

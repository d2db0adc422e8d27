package experiments

import (
	"io"
	"time"

	"tgopt/internal/core"
)

// AblationStep names one configuration of the accumulative ablation
// (paper Figure 6): optimizations are enabled one at a time on top of
// the previous step.
type AblationStep struct {
	Label   string
	Options core.Options
}

// AblationSteps returns the paper's sequence: baseline → +cache →
// +dedup → +time-precompute.
func AblationSteps(s Setup) []AblationStep {
	limit := s.EffectiveCacheLimit()
	return []AblationStep{
		{Label: "baseline", Options: core.Options{}},
		{Label: "+cache", Options: core.Options{EnableCache: true, CacheLimit: limit}},
		{Label: "+dedup", Options: core.Options{EnableCache: true, EnableDedup: true, CacheLimit: limit}},
		{Label: "+time", Options: core.Options{
			EnableCache: true, EnableDedup: true, EnableTimePrecompute: true,
			CacheLimit: limit, TimeWindow: s.TimeWindow,
		}},
	}
}

// Figure6Row is one dataset's ablation trajectory.
type Figure6Row struct {
	Dataset  string
	Device   DeviceKind
	Labels   []string
	Runtimes []time.Duration
	Speedups []float64 // relative to the baseline step
	// AttnRows is the number of rows each step sent through attention in
	// one run: the deterministic quantity behind the runtimes.
	AttnRows []int64
}

// Figure6 runs the accumulative ablation for the given datasets (the
// paper uses jodie-lastfm and snap-msg) on the given device kind.
func Figure6(w io.Writer, s Setup, names []string, kind DeviceKind) ([]Figure6Row, error) {
	steps := AblationSteps(s)
	fprintf(w, "Figure 6: accumulative ablation speedup (%s)\n", kind)
	fprintf(w, "%-14s", "dataset")
	for _, st := range steps {
		fprintf(w, " %10s", st.Label)
	}
	fprintf(w, "\n")
	var rows []Figure6Row
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		row := Figure6Row{Dataset: name, Device: kind}
		for _, st := range steps {
			rt, _, attnRows := MeasureRuns(wl, st.Options, kind, s.Runs)
			row.Labels = append(row.Labels, st.Label)
			row.Runtimes = append(row.Runtimes, rt)
			row.AttnRows = append(row.AttnRows, attnRows)
		}
		base := row.Runtimes[0]
		for _, rt := range row.Runtimes {
			sp := 0.0
			if rt > 0 {
				sp = float64(base) / float64(rt)
			}
			row.Speedups = append(row.Speedups, sp)
		}
		rows = append(rows, row)
		fprintf(w, "%-14s", name)
		for _, sp := range row.Speedups {
			fprintf(w, " %9.2fx", sp)
		}
		fprintf(w, "\n")
	}
	return rows, nil
}

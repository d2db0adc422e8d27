package experiments

import (
	"io"
	"os"
	"path/filepath"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// Table2Row compares a generated workload's statistics against the
// paper's published Table 2 (scaled by Setup.Scale).
type Table2Row struct {
	Dataset    string
	Bipartite  bool
	SpecNodes  int // scaled target
	SpecEdges  int
	GenNodes   int // what the generator produced
	GenEdges   int
	GenMaxTime float64
	MeanDegree float64
}

// Table2 generates every workload and reports its realized statistics —
// the reproduction of the paper's dataset summary table.
func Table2(w io.Writer, s Setup, names []string) ([]Table2Row, error) {
	fprintf(w, "Table 2: dataset statistics at scale %g\n", s.Scale)
	fprintf(w, "%-14s %-12s %8s %10s %10s %10s\n", "dataset", "kind", "|V|", "|E|", "max(t)", "mean deg")
	var rows []Table2Row
	for _, name := range names {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return nil, err
		}
		spec = spec.Scale(s.Scale)
		ds, err := dataset.Generate(spec, dataset.Options{FeatureDim: s.NodeDim})
		if err != nil {
			return nil, err
		}
		g := ds.Graph
		sumDeg := 0
		for v := int32(1); v <= int32(g.NumNodes()); v++ {
			sumDeg += g.Degree(v)
		}
		row := Table2Row{
			Dataset:    name,
			Bipartite:  spec.Bipartite,
			SpecNodes:  spec.NumNodes(),
			SpecEdges:  spec.Edges,
			GenNodes:   g.NumNodes(),
			GenEdges:   g.NumEdges(),
			GenMaxTime: g.MaxTime(),
			MeanDegree: float64(sumDeg) / float64(g.NumNodes()),
		}
		rows = append(rows, row)
		kind := "homogeneous"
		if spec.Bipartite {
			kind = "bipartite"
		}
		fprintf(w, "%-14s %-12s %8d %10d %10.3g %10.1f\n",
			name, kind, row.GenNodes, row.GenEdges, row.GenMaxTime, row.MeanDegree)
	}
	return rows, nil
}

// TrainDedupResult measures §7 training-time deduplication: wall time
// per epoch with the plain forward vs the deduplicated one.
type TrainDedupResult struct {
	Dataset    string
	Plain      time.Duration
	Dedup      time.Duration
	LossPlain  float64
	LossDedup  float64
	FinalDelta float64 // |loss difference| after the run
}

// Speedup returns plain/dedup.
func (r TrainDedupResult) Speedup() float64 {
	if r.Dedup <= 0 {
		return 0
	}
	return float64(r.Plain) / float64(r.Dedup)
}

// TrainDedup trains the same model twice from the same initialization —
// once with and once without the training-time deduplication filter —
// and reports wall time and final losses (which must agree closely,
// since dedup is semantics-preserving).
func TrainDedup(w io.Writer, s Setup, name string, epochs int) (*TrainDedupResult, error) {
	if epochs < 1 {
		epochs = 1
	}
	run := func(dedup bool) (time.Duration, float64, error) {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return 0, 0, err
		}
		cfg := trainer.Config{
			Epochs: epochs, BatchSize: s.BatchSize, LR: 1e-3,
			TrainFrac: 1.0, Seed: s.Seed, Dedup: dedup,
		}
		start := time.Now()
		res, err := trainer.Train(wl.Model, wl.DS.Graph, wl.Sampler, cfg)
		if err != nil {
			return 0, 0, err
		}
		return time.Since(start), res.EpochLoss[len(res.EpochLoss)-1], nil
	}
	plainT, plainL, err := run(false)
	if err != nil {
		return nil, err
	}
	dedupT, dedupL, err := run(true)
	if err != nil {
		return nil, err
	}
	res := &TrainDedupResult{
		Dataset: name, Plain: plainT, Dedup: dedupT,
		LossPlain: plainL, LossDedup: dedupL,
		FinalDelta: abs(plainL - dedupL),
	}
	fprintf(w, "Training-time dedup (%s, %d epochs): plain %.2fs, dedup %.2fs (%.2fx), final-loss delta %.2g\n",
		name, epochs, plainT.Seconds(), dedupT.Seconds(), res.Speedup(), res.FinalDelta)
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BatchSweepPoint is one batch-size measurement of the extra ablation:
// how the TGOpt speedup depends on the inference batch size (the paper
// fixes 200).
type BatchSweepPoint struct {
	BatchSize int
	Baseline  time.Duration
	Optimized time.Duration
}

// Speedup returns baseline/optimized.
func (p BatchSweepPoint) Speedup() float64 {
	if p.Optimized <= 0 {
		return 0
	}
	return float64(p.Baseline) / float64(p.Optimized)
}

// BatchSweep measures end-to-end runtime across batch sizes.
func BatchSweep(w io.Writer, s Setup, name string, sizes []int) ([]BatchSweepPoint, error) {
	wl, err := LoadWorkload(name, s)
	if err != nil {
		return nil, err
	}
	fprintf(w, "Batch-size sweep (%s)\n%10s %12s %12s %9s\n", name, "batch", "baseline", "tgopt", "speedup")
	var points []BatchSweepPoint
	for _, bs := range sizes {
		if bs < 1 {
			continue
		}
		wl.SetBatchSize(bs)
		base, _, _ := MeasureRuns(wl, baselineOptions(), CPU, s.Runs)
		opt, _, _ := MeasureRuns(wl, optAllScaled(s), CPU, s.Runs)
		p := BatchSweepPoint{BatchSize: bs, Baseline: base, Optimized: opt}
		points = append(points, p)
		fprintf(w, "%10d %11.3fs %11.3fs %8.2fx\n", bs, base.Seconds(), opt.Seconds(), p.Speedup())
	}
	return points, nil
}

// WarmStartResult measures the production value of cache persistence:
// how much faster the first batches of a restarted process run when the
// memoization cache is restored from disk instead of rebuilt.
type WarmStartResult struct {
	Dataset string
	Batches int
	Cold    time.Duration
	Warm    time.Duration
	WarmHit float64 // average hit rate over the measured batches
	// Cache misses (rows recomputed) over the measured batches, summed
	// over layers: the deterministic quantity behind the two timings.
	ColdMisses, WarmMisses int64
}

// Speedup returns cold/warm.
func (r WarmStartResult) Speedup() float64 {
	if r.Warm <= 0 {
		return 0
	}
	return float64(r.Cold) / float64(r.Warm)
}

// WarmStart warms an engine over the full stream, persists its caches,
// and compares a cold engine against a restored one on the stream's
// final `batches` batches (the region the warm cache covers best).
func WarmStart(w io.Writer, s Setup, name string, batches int) (*WarmStartResult, error) {
	wl, err := LoadWorkload(name, s)
	if err != nil {
		return nil, err
	}
	if batches < 1 {
		batches = 5
	}
	warmEng := core.NewEngine(wl.Model, wl.Sampler, optAllScaled(s))
	tgat.StreamInference(wl.DS.Graph, wl.Model, s.BatchSize, warmEng.EmbedFunc())
	dir, err := os.MkdirTemp("", "tgopt-warm")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "cache.bin")
	if err := warmEng.SaveCaches(snap); err != nil {
		return nil, err
	}

	edges := wl.DS.Graph.Edges()
	start := len(edges) - batches*s.BatchSize
	if start < 0 {
		start = 0
	}
	tail := edges[start:]
	run := func(eng *core.Engine) time.Duration {
		t0 := time.Now()
		for off := 0; off < len(tail); off += s.BatchSize {
			end := off + s.BatchSize
			if end > len(tail) {
				end = len(tail)
			}
			batch := tail[off:end]
			nb := len(batch)
			ns := make([]int32, 2*nb)
			ts := make([]float64, 2*nb)
			for i, e := range batch {
				ns[i], ns[nb+i] = e.Src, e.Dst
				ts[i], ts[nb+i] = e.Time, e.Time
			}
			eng.Embed(ns, ts)
		}
		return time.Since(t0)
	}

	coldEng := core.NewEngine(wl.Model, wl.Sampler, optAllScaled(s))
	coldT := run(coldEng)

	restored := core.NewEngine(wl.Model, wl.Sampler, optAllScaled(s))
	if err := restored.LoadCaches(snap); err != nil {
		return nil, err
	}
	warmT := run(restored)

	cold, warm := cacheTotals(coldEng), cacheTotals(restored)
	res := &WarmStartResult{
		Dataset: name, Batches: (len(tail) + s.BatchSize - 1) / s.BatchSize,
		Cold: coldT, Warm: warmT, ColdMisses: cold.Misses, WarmMisses: warm.Misses,
	}
	if warm.Lookups > 0 {
		res.WarmHit = float64(warm.Hits) / float64(warm.Lookups)
	}
	fprintf(w, "Warm start (%s, last %d batches): cold %.3fs, warm %.3fs (%.2fx), warm hit rate %.1f%%, misses %d -> %d\n",
		name, res.Batches, coldT.Seconds(), warmT.Seconds(), res.Speedup(), 100*res.WarmHit, res.ColdMisses, res.WarmMisses)
	return res, nil
}

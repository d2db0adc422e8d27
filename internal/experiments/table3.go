package experiments

import (
	"io"
	"time"

	"tgopt/internal/stats"
)

// Table3Result is the per-operation cost breakdown of one dataset on
// one device: baseline and TGOpt durations per Algorithm 1 operation,
// plus the average cache hit rate and used cache size of the optimized
// run (paper Table 3).
type Table3Result struct {
	Dataset    string
	Device     DeviceKind
	Baseline   map[stats.Op]time.Duration
	Optimized  map[stats.Op]time.Duration
	HitRate    float64
	CacheBytes int64
	CacheItems int
	// BaselineRows and OptimizedRows are the rows each run sent through
	// attention: the deterministic quantity behind the attention M row.
	BaselineRows, OptimizedRows int64
}

// Table3 runs the breakdown analysis for each named dataset on the
// given device kind.
func Table3(w io.Writer, s Setup, names []string, kind DeviceKind) ([]Table3Result, error) {
	var results []Table3Result
	for _, name := range names {
		wl, err := LoadWorkload(name, s)
		if err != nil {
			return nil, err
		}
		wl.SetBatchSize(s.BatchSize)
		base := RunInference(wl, baselineOptions(), kind)
		opt := RunInference(wl, optAllScaled(s), kind)
		res := Table3Result{
			Dataset:    name,
			Device:     kind,
			Baseline:   base.Ops,
			Optimized:  opt.Ops,
			HitRate:    opt.HitRate.Average(),
			CacheBytes: opt.Engine.CacheBytes(),
			CacheItems: opt.Engine.CacheLen(),

			BaselineRows:  base.Engine.Ops().Items(stats.OpAttention),
			OptimizedRows: opt.Engine.Ops().Items(stats.OpAttention),
		}
		results = append(results, res)
		fprintf(w, "Table 3 (%s, %s): total runtime of operations\n", name, kind)
		fprintf(w, "%-16s %12s %12s\n", "operation", "base", "ours")
		for op := range stats.NumOps { // the paper's row order
			b, hasB := res.Baseline[op]
			o, hasO := res.Optimized[op]
			if !hasB && !hasO {
				continue
			}
			fprintf(w, "%-16s %11.3fs %11.3fs\n", op, b.Seconds(), o.Seconds())
		}
		fprintf(w, "%-16s %12d %12d\n", "attention rows", res.BaselineRows, res.OptimizedRows)
		fprintf(w, "%-16s %11.2f%%\n", "avg hit rate", 100*res.HitRate)
		fprintf(w, "%-16s %10.1fMiB (%d items)\n\n", "used cache size",
			float64(res.CacheBytes)/(1<<20), res.CacheItems)
	}
	return results, nil
}

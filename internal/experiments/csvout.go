package experiments

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"tgopt/internal/device"
)

// CSV emitters: the paper's artifact writes machine-readable results
// under logs/ (ab-cpu.csv, bd-*-hits.csv, …) for its plot scripts; these
// helpers provide the same for downstream analysis.

// WriteCSVFile writes header+rows into dir/name.csv, creating dir.
func WriteCSVFile(dir, name string, header []string, rows [][]string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := csv.NewWriter(f)
	if err := w.Write(header); err != nil {
		f.Close()
		return "", err
	}
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return "", err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// Table1CSV flattens duplication ratios.
func Table1CSV(rows []Table1Row) ([]string, [][]string) {
	header := []string{"dataset", "layer", "duplication"}
	var out [][]string
	for _, r := range rows {
		for l, v := range r.Layer {
			out = append(out, []string{r.Dataset, strconv.Itoa(l), ftoa(v)})
		}
	}
	return header, out
}

// Figure3CSV flattens the reuse trend.
func Figure3CSV(points []Figure3Point) ([]string, [][]string) {
	header := []string{"time", "reused", "recomputed"}
	var out [][]string
	for _, p := range points {
		out = append(out, []string{ftoa(p.Time), strconv.FormatInt(p.Reused, 10), strconv.FormatInt(p.Recomputed, 10)})
	}
	return header, out
}

// Figure4CSV flattens the delta histogram.
func Figure4CSV(buckets []Figure4Bucket) ([]string, [][]string) {
	header := []string{"dt_lo", "dt_hi", "count"}
	var out [][]string
	for _, b := range buckets {
		out = append(out, []string{ftoa(b.Lo), ftoa(b.Hi), strconv.FormatInt(b.Count, 10)})
	}
	return header, out
}

// Figure5CSV flattens runtimes and speedups.
func Figure5CSV(rows []Figure5Row) ([]string, [][]string) {
	header := []string{"dataset", "device", "baseline_s", "baseline_std_s", "tgopt_s", "tgopt_std_s", "speedup"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Device.String(),
			ftoa(r.Baseline.Seconds()), ftoa(r.BaselineStd.Seconds()),
			ftoa(r.Optimized.Seconds()), ftoa(r.OptimizedStd.Seconds()),
			ftoa(r.Speedup()),
		})
	}
	return header, out
}

// Figure6CSV flattens the ablation trajectory (the artifact's
// ab-{cpu,gpu}.csv).
func Figure6CSV(rows []Figure6Row) ([]string, [][]string) {
	header := []string{"dataset", "device", "step", "runtime_s", "speedup"}
	var out [][]string
	for _, r := range rows {
		for i, label := range r.Labels {
			out = append(out, []string{
				r.Dataset, r.Device.String(), label,
				ftoa(r.Runtimes[i].Seconds()), ftoa(r.Speedups[i]),
			})
		}
	}
	return header, out
}

// Figure7CSV flattens hit-rate series (the artifact's bd-*-hits.csv).
func Figure7CSV(series []Figure7Series) ([]string, [][]string) {
	header := []string{"dataset", "lookup", "hit_rate"}
	var out [][]string
	for _, s := range series {
		for i, v := range s.Rates {
			out = append(out, []string{s.Dataset, strconv.Itoa(i), ftoa(v)})
		}
	}
	return header, out
}

// Table4CSV flattens the cache-limit sweep.
func Table4CSV(cells []Table4Cell) ([]string, [][]string) {
	header := []string{"dataset", "limit", "runtime_s", "bytes", "hit_rate"}
	var out [][]string
	for _, c := range cells {
		out = append(out, []string{
			c.Dataset, strconv.Itoa(c.Limit),
			ftoa(c.Runtime.Seconds()), strconv.FormatInt(c.Bytes, 10), ftoa(c.HitRate),
		})
	}
	return header, out
}

// Table5CSV flattens the transfer accounts.
func Table5CSV(results []Table5Result) ([]string, [][]string) {
	header := []string{"dataset", "cache_on_device", "direction", "calls", "bytes", "time_s", "pct_of_total"}
	var out [][]string
	for _, r := range results {
		for d, x := range r.Transfers {
			dir := device.Direction(d)
			out = append(out, []string{
				r.Dataset, fmt.Sprint(r.Placement == device.CacheOnDevice), dir.String(),
				strconv.FormatInt(x.Calls, 10), strconv.FormatInt(x.Bytes, 10),
				ftoa(x.Time.Seconds()), ftoa(r.Pct(dir)),
			})
		}
	}
	return header, out
}

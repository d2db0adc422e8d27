package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile
// (exclusive method, as Python's statistics.quantiles(n=4) computes
// them). Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(3) - q(1)
}

// verdict is one row of compare: a workload × end-to-end metric.
type verdict struct {
	Workload string    `json:"workload"`
	Metric   metricDef `json:"metric"`
	Base     float64   `json:"base_median"`
	New      float64   `json:"new_median"`
	// Worse is the change in the worse direction and Spread the wider of
	// the two files' quartile distances: shares of the base median, or
	// absolute differences where the metric's bound is absolute.
	Worse   float64 `json:"worse_by"`
	Spread  float64 `json:"spread"`
	Verdict string  `json:"verdict"` // better, same, worse or unresolved
}

// judge compares the two files' runs of one metric on one workload.
// A spread wider than the bound cannot resolve a change of the bound's
// size, so the row is unresolved, not same.
func judge(workload string, d metricDef, a, b []float64) verdict {
	v := verdict{Workload: workload, Metric: d, Base: median(a), New: median(b)}
	v.Worse = v.New - v.Base
	if d.Better == "higher" {
		v.Worse = -v.Worse
	}
	v.Spread = math.Max(quartileSpread(a), quartileSpread(b))
	if !d.Abs {
		v.Worse = ratio(v.Worse, v.Base)
		v.Spread = math.Max(ratio(quartileSpread(a), v.Base), ratio(quartileSpread(b), v.New))
	}
	switch {
	case v.Spread > d.Bound:
		v.Verdict = "unresolved"
	case v.Worse > d.Bound:
		v.Verdict = "worse"
	case v.Worse < -d.Bound:
		v.Verdict = "better"
	default:
		v.Verdict = "same"
	}
	return v
}

// compareFiles judges every workload × end-to-end metric present in
// both files.
func compareFiles(a, b *resultFile) []verdict {
	var out []verdict
	for _, w := range a.workloadNames() {
		for _, d := range endToEnd {
			av, bv := a.values(w, d.Name), b.values(w, d.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			out = append(out, judge(w, d, av, bv))
		}
	}
	return out
}

// compareCmd prints one row per workload × metric and fails on any
// "worse", or on a fail_frac higher than the base's. With -strict, the
// self-check's rule, it fails on anything but "same".
func compareCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	jsonOut := fs.String("json", "", "also write the rows to this file")
	strict := fs.Bool("strict", false, "fail unless every row is \"same\"")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchmark compare [-json rows.json] [-strict] base.json new.json")
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := compareFiles(a, b)
	if len(rows) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	fmt.Printf("%-13s %-18s %12s %12s %24s %7s %7s  %s\n", "workload", "metric", "base median", "new median", "new/base", "bound", "spread", "verdict")
	failed := 0
	for _, v := range rows {
		bound, spread := fmt.Sprintf("%.1f%%", 100*v.Metric.Bound), fmt.Sprintf("%.1f%%", 100*v.Spread)
		if v.Metric.Abs {
			bound, spread = fmt.Sprintf("+%g", v.Metric.Bound), fmt.Sprintf("%.4f", v.Spread)
		}
		rel := fmt.Sprintf("%.4f (base %.5g)", ratio(v.New, v.Base), v.Base)
		fmt.Printf("%-13s %-18s %12.6g %12.6g %24s %7s %7s  %s\n", v.Workload, v.Metric.Name, v.Base, v.New, rel, bound, spread, v.Verdict)
		switch {
		case v.Verdict == "worse", v.Metric.Name == "fail_frac" && v.New > v.Base:
			failed++
		case *strict && v.Verdict != "same":
			failed++
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(struct {
			Base string    `json:"base"`
			New  string    `json:"new"`
			Runs [2]int    `json:"runs"`
			Rows []verdict `json:"rows"`
		}{fs.Arg(0), fs.Arg(1), [2]int{len(a.Runs), len(b.Runs)}, rows}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d rows fail", failed)
	}
	return nil
}

// calibration is one row of calibrate: how far apart sets of runs of
// the same code came out, which is what a bound has to exceed.
type calibration struct {
	Workload   string    `json:"workload"`
	Metric     string    `json:"metric"`
	SetMedians []float64 `json:"set_medians"`
	// Gap is the largest distance between two sets' medians and Spread
	// the widest quartile distance inside one set, as shares of the
	// median of the set medians (absolute for absolute bounds).
	Gap    float64 `json:"largest_gap"`
	Spread float64 `json:"largest_spread"`
	// Floor is what the measurements ask of the bound: twice the gap and
	// three times the spread, and at least 5 %. Bound is the one frozen
	// in the metric table.
	Floor float64 `json:"bound_floor"`
	Bound float64 `json:"bound"`
}

// calibrateCmd reads sets of runs of the same code — run alternately —
// and prints, for every workload × end-to-end metric, the gaps between
// the sets that fixed its bound.
func calibrateCmd(args []string) error {
	fs := flag.NewFlagSet("benchmark calibrate", flag.ContinueOnError)
	jsonOut := fs.String("json", "", "also write the rows to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("usage: benchmark calibrate [-json rows.json] set1.json set2.json [set3.json ...]")
	}
	var sets []*resultFile
	for _, path := range fs.Args() {
		rf, err := readResults(path)
		if err != nil {
			return err
		}
		sets = append(sets, rf)
	}
	var rows []calibration
	fmt.Printf("%-13s %-18s %-40s %8s %8s %8s %8s\n", "workload", "metric", "set medians", "gap", "spread", "floor", "bound")
	for _, w := range sets[0].workloadNames() {
		for _, d := range endToEnd {
			c := calibration{Workload: w, Metric: d.Name, Bound: d.Bound}
			var spreads []float64
			for _, s := range sets {
				vals := s.values(w, d.Name)
				c.SetMedians = append(c.SetMedians, median(vals))
				spreads = append(spreads, quartileSpread(vals))
			}
			sorted := append([]float64(nil), c.SetMedians...)
			sort.Float64s(sorted)
			c.Gap = sorted[len(sorted)-1] - sorted[0]
			sort.Float64s(spreads)
			c.Spread = spreads[len(spreads)-1]
			if !d.Abs {
				mid := median(c.SetMedians)
				c.Gap, c.Spread = ratio(c.Gap, mid), ratio(c.Spread, mid)
				c.Floor = math.Max(0.05, math.Max(2*c.Gap, 3*c.Spread))
			}
			rows = append(rows, c)
			fmt.Printf("%-13s %-18s %-40s %8.4f %8.4f %8.4f %8.4f\n", w, d.Name, fmt.Sprintf("%.5g", c.SetMedians), c.Gap, c.Spread, c.Floor, c.Bound)
		}
	}
	if *jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(struct {
		Sets []string      `json:"sets"`
		Rows []calibration `json:"rows"`
	}{fs.Args(), rows}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
}

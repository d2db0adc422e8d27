// tgopt-bench regenerates the paper's tables and figures. One
// subcommand per artifact:
//
//	tgopt-bench table1                     # batch duplication per layer
//	tgopt-bench fig3  [-d snap-msg]        # reuse vs recompute over time
//	tgopt-bench fig4  [-d snap-msg]        # Δt distribution
//	tgopt-bench fig5  [--device cpu|gpu]   # end-to-end runtimes + speedups
//	tgopt-bench fig6  [--device cpu|gpu]   # accumulative ablation
//	tgopt-bench fig7                       # cache hit-rate evolution
//	tgopt-bench table3 [--device cpu|gpu]  # operation breakdown
//	tgopt-bench table4                     # cache-limit sweep
//	tgopt-bench table5                     # cache placement transfers
//	tgopt-bench table2                     # dataset statistics
//	tgopt-bench sampling                   # most-recent vs uniform probe
//	tgopt-bench train-dedup                # §7 training-time dedup
//	tgopt-bench warmstart                  # cache persistence warm start
//	tgopt-bench batchsweep                 # batch-size sensitivity
//	tgopt-bench all                        # everything above, CPU + GPU
//
// Figure subcommands accept --plot <dir> (SVG output) and --csv <dir>
// (machine-readable results). The synthetic workloads are scaled-down
// analogues of the paper's Table 2 datasets; --scale controls the
// factor (see EXPERIMENTS.md).
//
// This is the paper reproduction, not the performance record: how fast
// the engine and the server are is measured by benchmark/ alone (see
// benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/experiments"
	"tgopt/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	scale := fs.Float64("scale", 0.004, "dataset scale factor relative to the paper's Table 2")
	batch := fs.Int("batch", 200, "inference batch size (paper: 200)")
	dim := fs.Int("dim", 32, "node/edge/time feature width")
	heads := fs.Int("heads", 2, "attention heads")
	layers := fs.Int("layers", 2, "TGAT layers")
	k := fs.Int("k", 10, "sampled most-recent neighbors")
	runs := fs.Int("runs", 3, "repetitions for runtime experiments (paper: 10)")
	deviceFlag := fs.String("device", "cpu", "cpu or gpu (simulated accelerator)")
	ds := fs.String("d", "", "restrict to one dataset (default: experiment-appropriate set)")
	cacheLimit := fs.Int("cache-limit", 0, "cache item limit (0 = paper's 2M scaled)")
	window := fs.Int("time-window", core.DefaultTimeWindow, "precomputed time-encoding window")
	seed := fs.Uint64("seed", 1, "deterministic seed")
	plotDir := fs.String("plot", "", "also write figure SVGs into this directory")
	csvDir := fs.String("csv", "", "also write machine-readable result CSVs into this directory")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	setup := experiments.Setup{
		Scale:      *scale,
		BatchSize:  *batch,
		NodeDim:    *dim,
		Heads:      *heads,
		Layers:     *layers,
		K:          *k,
		Runs:       *runs,
		CacheLimit: *cacheLimit,
		TimeWindow: *window,
		Seed:       *seed,
	}
	kind := experiments.CPU
	switch *deviceFlag {
	case "cpu":
	case "gpu":
		kind = experiments.GPU
	default:
		fatal(fmt.Errorf("unknown --device %q (want cpu or gpu)", *deviceFlag))
	}

	all := dataset.Names()
	selected := all
	if *ds != "" {
		selected = []string{*ds}
	}
	// The paper's in-depth analyses focus on these two datasets.
	focus := []string{"jodie-lastfm", "snap-msg"}
	if *ds != "" {
		focus = []string{*ds}
	}

	w := os.Stdout
	fmt.Fprintf(w, "kernels: %s\n", tensor.Kernels())
	var err error
	switch cmd {
	case "table1":
		var rows []experiments.Table1Row
		rows, err = experiments.Table1(w, setup, selected)
		if err == nil {
			h, rs := experiments.Table1CSV(rows)
			err = maybeCSV(*csvDir, "table1", h, rs)
		}
	case "fig3":
		name := one(focus, "snap-msg", *ds)
		var points []experiments.Figure3Point
		points, err = experiments.Figure3(w, setup, name, 20)
		if err == nil {
			err = maybePlot(*plotDir, "fig3-"+name, experiments.Figure3SVG(name, points))
		}
		if err == nil {
			h, rs := experiments.Figure3CSV(points)
			err = maybeCSV(*csvDir, "fig3-"+name, h, rs)
		}
	case "fig4":
		name := one(focus, "snap-msg", *ds)
		var buckets []experiments.Figure4Bucket
		buckets, err = experiments.Figure4(w, setup, name, 14)
		if err == nil {
			err = maybePlot(*plotDir, "fig4-"+name, experiments.Figure4SVG(name, buckets))
		}
		if err == nil {
			h, rs := experiments.Figure4CSV(buckets)
			err = maybeCSV(*csvDir, "fig4-"+name, h, rs)
		}
	case "fig5":
		var rows []experiments.Figure5Row
		rows, err = experiments.Figure5(w, setup, selected, kind)
		if err == nil {
			err = maybePlot(*plotDir, "fig5-"+kind.String(), experiments.Figure5SVG(rows))
		}
		if err == nil {
			h, rs := experiments.Figure5CSV(rows)
			err = maybeCSV(*csvDir, "fig5-"+kind.String(), h, rs)
		}
	case "fig6":
		var rows []experiments.Figure6Row
		rows, err = experiments.Figure6(w, setup, focus, kind)
		if err == nil {
			err = maybePlot(*plotDir, "fig6-"+kind.String(), experiments.Figure6SVG(rows))
		}
		if err == nil {
			h, rs := experiments.Figure6CSV(rows)
			err = maybeCSV(*csvDir, "fig6-"+kind.String(), h, rs)
		}
	case "fig7":
		var series []experiments.Figure7Series
		series, err = experiments.Figure7(w, setup, focus)
		if err == nil {
			err = maybePlot(*plotDir, "fig7", experiments.Figure7SVG(series))
		}
		if err == nil {
			h, rs := experiments.Figure7CSV(series)
			err = maybeCSV(*csvDir, "fig7", h, rs)
		}
	case "table3":
		_, err = experiments.Table3(w, setup, focus, kind)
	case "table4":
		var cells []experiments.Table4Cell
		cells, err = experiments.Table4(w, setup, focus, experiments.GPU)
		if err == nil {
			h, rs := experiments.Table4CSV(cells)
			err = maybeCSV(*csvDir, "table4", h, rs)
		}
	case "table5":
		var results []experiments.Table5Result
		results, err = experiments.Table5(w, setup, focus)
		if err == nil {
			h, rs := experiments.Table5CSV(results)
			err = maybeCSV(*csvDir, "table5", h, rs)
		}
	case "sampling":
		_, err = experiments.CompareSampling(w, setup, one(focus, "jodie-lastfm", *ds))
	case "table2":
		_, err = experiments.Table2(w, setup, selected)
	case "train-dedup":
		_, err = experiments.TrainDedup(w, setup, one(focus, "snap-msg", *ds), 1)
	case "warmstart":
		_, err = experiments.WarmStart(w, setup, one(focus, "jodie-lastfm", *ds), 5)
	case "batchsweep":
		_, err = experiments.BatchSweep(w, setup, one(focus, "jodie-lastfm", *ds),
			[]int{50, 100, 200, 400, 800})
	case "all":
		err = runAll(setup, selected, focus, *plotDir, *csvDir)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// maybeCSV writes a result CSV into dir when requested.
func maybeCSV(dir, name string, header []string, rows [][]string) error {
	if dir == "" {
		return nil
	}
	path, err := experiments.WriteCSVFile(dir, name, header, rows)
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// maybePlot writes svg into dir when plotting is requested.
func maybePlot(dir, name, svg string) error {
	if dir == "" {
		return nil
	}
	path, err := experiments.WriteSVG(dir, name, svg)
	if err == nil {
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return err
}

// one picks the explicit dataset if given, else the preferred default.
func one(focus []string, preferred, explicit string) string {
	if explicit != "" {
		return explicit
	}
	for _, f := range focus {
		if f == preferred {
			return f
		}
	}
	return focus[0]
}

func runAll(setup experiments.Setup, selected, focus []string, plotDir, csvDir string) error {
	w := os.Stdout
	// Figures 3 and 4 are distribution analyses, not timing runs; they
	// are cheap enough to run at a larger scale, which snap-msg (the
	// paper's subject and the smallest dataset) needs to develop its
	// redundancy structure.
	distSetup := setup
	if distSetup.Scale < 0.05 {
		distSetup.Scale = 0.05
	}
	steps := []func() error{
		func() error {
			rows, err := experiments.Table1(w, setup, selected)
			if err != nil {
				return err
			}
			h, rs := experiments.Table1CSV(rows)
			return maybeCSV(csvDir, "table1", h, rs)
		},
		func() error {
			points, err := experiments.Figure3(w, distSetup, "snap-msg", 20)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig3-snap-msg", experiments.Figure3SVG("snap-msg", points)); err != nil {
				return err
			}
			h, rs := experiments.Figure3CSV(points)
			return maybeCSV(csvDir, "fig3-snap-msg", h, rs)
		},
		func() error {
			buckets, err := experiments.Figure4(w, distSetup, "snap-msg", 14)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig4-snap-msg", experiments.Figure4SVG("snap-msg", buckets)); err != nil {
				return err
			}
			h, rs := experiments.Figure4CSV(buckets)
			return maybeCSV(csvDir, "fig4-snap-msg", h, rs)
		},
		func() error {
			rows, err := experiments.Figure5(w, setup, selected, experiments.CPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig5-cpu", experiments.Figure5SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure5CSV(rows)
			return maybeCSV(csvDir, "fig5-cpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure5(w, setup, selected, experiments.GPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig5-gpu", experiments.Figure5SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure5CSV(rows)
			return maybeCSV(csvDir, "fig5-gpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure6(w, setup, focus, experiments.CPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig6-cpu", experiments.Figure6SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure6CSV(rows)
			return maybeCSV(csvDir, "fig6-cpu", h, rs)
		},
		func() error {
			rows, err := experiments.Figure6(w, setup, focus, experiments.GPU)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig6-gpu", experiments.Figure6SVG(rows)); err != nil {
				return err
			}
			h, rs := experiments.Figure6CSV(rows)
			return maybeCSV(csvDir, "fig6-gpu", h, rs)
		},
		func() error {
			series, err := experiments.Figure7(w, distSetup, focus)
			if err != nil {
				return err
			}
			if err := maybePlot(plotDir, "fig7", experiments.Figure7SVG(series)); err != nil {
				return err
			}
			h, rs := experiments.Figure7CSV(series)
			return maybeCSV(csvDir, "fig7", h, rs)
		},
		func() error { _, err := experiments.Table3(w, setup, focus, experiments.CPU); return err },
		func() error { _, err := experiments.Table3(w, setup, focus, experiments.GPU); return err },
		func() error {
			cells, err := experiments.Table4(w, setup, focus, experiments.GPU)
			if err != nil {
				return err
			}
			h, rs := experiments.Table4CSV(cells)
			return maybeCSV(csvDir, "table4", h, rs)
		},
		func() error {
			results, err := experiments.Table5(w, setup, focus)
			if err != nil {
				return err
			}
			h, rs := experiments.Table5CSV(results)
			return maybeCSV(csvDir, "table5", h, rs)
		},
		func() error { _, err := experiments.CompareSampling(w, setup, "jodie-lastfm"); return err },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tgopt-bench <table1|table2|fig3|fig4|fig5|fig6|fig7|table3|table4|table5|sampling|train-dedup|batchsweep|warmstart|all> [flags]
run "tgopt-bench fig5 -h" for flags`)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-bench:", err)
	os.Exit(1)
}

// Command benchmark is the repository's one benchmark: four workloads,
// the same nine end-to-end metrics on each, and a separate traced run
// that prices every layer from outside. See README.md in this
// directory.
//
//	benchmark --workload W --seed S --seconds N --trace 0|1   one workload, in this process (the driver's form)
//	benchmark run     -seed S [-runs N] -o out.json           every workload, each in a child process
//	benchmark trace   -seed S -o out.json                     the same, traced: per-layer metrics
//	benchmark compare a.json b.json                           diff two result files against the bounds
//	benchmark calibrate set1.json set2.json set3.json         how far sets of runs of one code disagree
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"tgopt/internal/parallel"
)

// traceDir is where the traced run writes its spans.
var traceDir = filepath.Join("benchmark", "out")

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = runAll(os.Args[2:], false)
	case len(os.Args) > 1 && os.Args[1] == "trace":
		err = runAll(os.Args[2:], true)
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareCmd(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "calibrate":
		err = calibrateCmd(os.Args[2:])
	default:
		err = runOne(os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process.
func runWorkload(name string, cfg runConfig) (*record, error) {
	w, err := findWorkload(name, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	if w.Serving {
		return runServe(w, cfg)
	}
	return runStream(w, cfg)
}

// runOne is the driver's form. The last line of standard output is the
// result object; a wrong row or failed op makes the exit code non-zero.
func runOne(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", defaultSeconds, "run length; op counts are the frozen per-second constants times this")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	out := fs.String("out", "", "also write the full record to this file")
	smoke := fs.Bool("smoke", false, "run the small op-count table `go test` runs: every code path, meaningless timings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("--seconds %d outside 1..60", *seconds)
	}
	runtime.GOMAXPROCS(2)
	parallel.SetDegree(2)
	rec, err := runWorkload(*name, runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Smoke: *smoke})
	if err != nil {
		return err
	}
	rec.print()
	if *out != "" {
		if err := (&resultFile{Runs: []*record{rec}}).write(*out); err != nil {
			return err
		}
	}
	fmt.Println(rec.driverLine())
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d checked rows wrong", rec.Workload, rec.rowsWrong, rec.rowsChecked)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// runAll runs every workload for every seed, each in its own child
// process with GOMAXPROCS=2, and gathers the records into one file.
func runAll(args []string, traced bool) error {
	fs := flag.NewFlagSet("benchmark run", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "first seed")
	runs := fs.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	seconds := fs.Int("seconds", defaultSeconds, "run length")
	only := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	out := fs.String("o", "", "result file to write")
	appendTo := fs.Bool("append", false, "add the runs to the result file instead of replacing it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rf := &resultFile{}
	if *appendTo && *out != "" {
		if old, err := readResults(*out); err == nil {
			rf = old
		}
	}
	rf.GoVersion, rf.NumCPU, rf.MaxProcs = runtime.Version(), runtime.NumCPU(), 2
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(traceDir, "run-*.json")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	trace := "0"
	if traced {
		trace = "1"
	}
	var bad []string
	for r := 0; r < *runs; r++ {
		for _, name := range strings.Split(*only, ",") {
			s := *seed + uint64(r)
			cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(s, 10),
				"--seconds", strconv.Itoa(*seconds), "--trace", trace, "--out", tmp.Name())
			cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				bad = append(bad, fmt.Sprintf("%s seed %d: %v", name, s, err))
				continue
			}
			one, err := readResults(tmp.Name())
			if err != nil {
				return err
			}
			rf.Runs = append(rf.Runs, one.Runs...)
		}
	}
	if *out != "" {
		if err := rf.write(*out); err != nil {
			return err
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(bad, "; "))
	}
	return nil
}

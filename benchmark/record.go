package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// phase is what one measured phase yields. Timings are kept twice: as
// the clock read them, and at reference host speed (hostref.go), which
// is what the end-to-end metrics report.
type phase struct {
	Wall     time.Duration // measured operations only, probes left out
	NormWall float64       // seconds at reference host speed
	CPUMs    float64       // user+system, at reference host speed
	Mallocs  uint64
	Targets  int
	Ops      int       // attempted
	Failed   int       // errored or answered outside 2xx
	SLOMiss  int       // failed, refused or slower than the latency limit
	LatMs    []float64 // at reference host speed
	RawLatMs []float64
	// Serving phases run in segments of segmentOps requests. SegWall is
	// each full segment's wall time and SegP50, SegP90 its latency
	// percentiles, all at reference host speed. The phase's throughput
	// and lat_p50_ms, lat_p90_ms come from their medians: a burst of
	// interference, or a stretch the hypervisor did not run the box,
	// spoils the segments it hits and not the phase's figure.
	SegWall, SegP50, SegP90 []float64
	SegTargets              int // targets embedded in the full segments
}

// span adds one timed stretch — a stream batch, or a segment of serving
// requests — that ran while the host was f times slower than reference.
func (p *phase) span(wall time.Duration, cpuMs, f float64) {
	p.Wall += wall
	p.NormWall += wall.Seconds() / f
	p.CPUMs += cpuMs / f
}

// throughput is targets per second at reference host speed: over the
// whole phase on a stream, from the median segment when serving.
func (p *phase) throughput() float64 {
	if n := len(p.SegWall); n > 0 {
		return ratio(float64(p.SegTargets)/float64(n), median(p.SegWall))
	}
	return ratio(float64(p.Targets), p.NormWall)
}

// op adds one operation's latency, in milliseconds as the clock read
// it, and counts it against the latency limit.
func (p *phase) op(ms, f, limitMs float64, ok bool) {
	p.Ops++
	p.RawLatMs = append(p.RawLatMs, ms)
	p.LatMs = append(p.LatMs, ms/f)
	if !ok {
		p.Failed++
	}
	if !ok || ms/f > limitMs {
		p.SLOMiss++
	}
}

// hostFactor is how many times slower than reference the host ran over
// the phase, weighted by time.
func (p *phase) hostFactor() float64 { return ratio(p.Wall.Seconds(), p.NormWall) }

// mallocs reads the process's allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// record is the full result of one workload run: what the driver's
// last line carries, plus the two ungated ratios, the inputs' hash and
// the op counts, so `compare` and the tests can read one file.
type record struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Seconds   int            `json:"seconds"`
	Traced    bool           `json:"traced"`
	OpLogHash string         `json:"op_log_hash"`
	Ops       map[string]int `json:"ops"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	EndToEnd  metricSet      `json:"end_to_end"`
	Layers    metricSet      `json:"layers"`
	Notes     []string       `json:"notes,omitempty"`

	rowsChecked int
	rowsWrong   int
}

func newRecord(w *workload, cfg runConfig) *record {
	return &record{
		Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Traced: cfg.Trace,
		EndToEnd: metricSet{}, Layers: metricSet{},
	}
}

// finish turns the untraced phases into the nine end-to-end metrics.
// closed is the phase throughput, CPU and allocations come from; open
// is the phase latencies come from (nil on stream workloads, where one
// closed loop gives both).
func (r *record) finish(setups []float64, closed, open *phase, chk checkResult) {
	lat := closed
	if open != nil {
		lat = open
	}
	attempted, failed, slo := closed.Ops, closed.Failed, closed.SLOMiss
	targets, cpu, mallocs := closed.Targets, closed.CPUMs, closed.Mallocs
	wall, norm := closed.Wall.Seconds(), closed.NormWall
	if open != nil {
		attempted += open.Ops
		failed += open.Failed
		slo = open.SLOMiss + closed.Failed
		targets += open.Targets
		cpu += open.CPUMs
		mallocs += open.Mallocs
		wall += open.Wall.Seconds()
		norm += open.NormWall
	}
	r.Attempted, r.Failed = attempted, failed
	r.addCheck(chk)

	e := r.EndToEnd
	e["setup_s"] = median(setups)
	e["targets_per_s"] = closed.throughput()
	e["lat_p50_ms"] = percentile(lat.LatMs, 0.50)
	e["lat_p90_ms"] = percentile(lat.LatMs, 0.90)
	if len(lat.SegP50) > 0 {
		e["lat_p50_ms"] = median(lat.SegP50)
		e["lat_p90_ms"] = median(lat.SegP90)
	}
	e["slo_miss_frac"] = ratio(float64(slo), float64(attempted))
	e["cpu_ms_per_target"] = ratio(cpu, float64(targets))
	e["allocs_per_target"] = ratio(float64(mallocs), float64(targets))
	e["peak_rss_mb"] = peakRSSMiB()
	r.Layers["serve.lat_p99_ms"] = percentile(lat.LatMs, 0.99)
	r.Layers["serve.lat_samples"] = float64(len(lat.LatMs))
	r.Layers["bench.slo_miss_frac"] = e["slo_miss_frac"]
	r.Layers["bench.host_speed_factor"] = ratio(wall, norm)
	r.Layers["bench.raw_targets_per_s"] = ratio(float64(closed.Targets), closed.Wall.Seconds())
	r.Layers["bench.raw_lat_p50_ms"] = percentile(lat.RawLatMs, 0.50)
}

// addCheck folds an output check into fail_frac and the verdict.
func (r *record) addCheck(chk checkResult) {
	r.rowsChecked += chk.Checked
	r.rowsWrong += chk.Wrong
	r.Failed += chk.Wrong
	r.Correct = r.rowsWrong == 0 && r.rowsChecked > 0
	ff := ratio(float64(r.Failed), float64(r.Attempted+r.rowsChecked))
	r.EndToEnd["fail_frac"] = ff
	r.Layers["bench.fail_frac"] = ff
}

// driverLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *record) driverLine() string {
	metrics := r.EndToEnd.render(endToEnd, true)
	if r.Traced {
		metrics = r.Layers.render(perLayer, false)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(out)
}

// print lists every metric by name with its unit.
func (r *record) print() {
	fmt.Printf("workload %s seed %d seconds %d op-log %s ops %v\n", r.Workload, r.Seed, r.Seconds, r.OpLogHash, r.Ops)
	show := func(defs []metricDef, vals metricSet) {
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok {
				fmt.Printf("  %-34s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(endToEnd, r.EndToEnd)
	show(perLayer, r.Layers)
	for _, n := range r.Notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  output check: %d rows, %d wrong; ops attempted %d, failed %d\n", r.rowsChecked, r.rowsWrong, r.Attempted, r.Failed)
}

// resultFile is what `run` and `trace` write and `compare` reads: the
// box it ran on and one record per workload per seed.
type resultFile struct {
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"nproc"`
	MaxProcs  int       `json:"gomaxprocs"`
	Runs      []*record `json:"runs"`
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func (rf *resultFile) write(path string) error {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// values lists a workload's runs of one end-to-end metric.
func (rf *resultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

func (rf *resultFile) workloadNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range rf.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	return names
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// The tests run the smoke table: the same code paths as the driver's
// form, on streams of a few thousand edges, so `go test ./...` stays
// quick. Timings from it mean nothing and no test reads one.

var smoke struct {
	once sync.Once
	recs map[string]*record
	err  error
}

// smokeRun runs one workload's traced smoke run: it holds the untraced
// pass too, so one run fills both the end-to-end and the layer metrics.
func smokeRun(name string, seed uint64) (*record, error) {
	return runWorkload(name, runConfig{Seed: seed, Seconds: 1, Trace: true, Smoke: true})
}

// smokeRecords runs every workload once on seed 1 and shares the result.
func smokeRecords(t *testing.T) map[string]*record {
	t.Helper()
	smoke.once.Do(func() {
		smoke.recs = map[string]*record{}
		for _, name := range workloadNames() {
			rec, err := smokeRun(name, 1)
			if err != nil {
				smoke.err = err
				return
			}
			smoke.recs[name] = rec
		}
	})
	if smoke.err != nil {
		t.Fatal(smoke.err)
	}
	return smoke.recs
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tgopt-benchmark-trace")
	if err != nil {
		panic(err)
	}
	traceDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestEveryMetricPresentFiniteAndUnited(t *testing.T) {
	for name, rec := range smokeRecords(t) {
		if !rec.Correct || rec.EndToEnd["fail_frac"] != 0 {
			t.Errorf("%s: correct=%v fail_frac=%v", name, rec.Correct, rec.EndToEnd["fail_frac"])
		}
		for _, d := range endToEnd {
			v, ok := rec.EndToEnd[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s missing or not finite: %v", name, d.Name, v)
			}
			if d.Gated && v <= 0 {
				t.Errorf("%s: gated metric %s must never be 0, got %v", name, d.Name, v)
			}
		}
		// The driver's line: every per-layer metric, each with its unit.
		var line struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(rec.driverLine()), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 {
			t.Errorf("%s: driver line says correct=%v attempted=%d", name, line.Correct, line.Attempted)
		}
		if len(line.Metrics) != len(perLayer) {
			t.Errorf("%s: traced line has %d metrics, table has %d", name, len(line.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			mv, ok := line.Metrics[d.Name]
			if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s: layer metric %s = %+v (present %v), want unit %q", name, d.Name, mv, ok, d.Unit)
			}
		}
		gated := rec.EndToEnd.render(endToEnd, true)
		for _, d := range endToEnd {
			if mv, ok := gated[d.Name]; ok != d.Gated || (ok && mv.Unit != d.Unit) {
				t.Errorf("%s: untraced line: %s present=%v unit=%q", name, d.Name, ok, mv.Unit)
			}
		}
	}
}

func TestOutputCheckCatchesOneFlippedBit(t *testing.T) {
	w, err := findWorkload("stream-reuse", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{Seed: 3, Seconds: 1, Smoke: true}
	h := newHostRef()
	defer h.close()
	env, err := setupStream(w, cfg, h)
	if err != nil {
		t.Fatal(err)
	}
	_, ans, _ := env.measure(cfg.Seed, h, nil)
	if got := checkAnswers(env.model, env.sampler, ans, h); got.Wrong != 0 || got.Checked == 0 {
		t.Fatalf("clean answers: %+v", got)
	}
	row := ans.Rows[len(ans.Rows)/2]
	row[3] = math.Float32frombits(math.Float32bits(row[3]) ^ 1)
	if got := checkAnswers(env.model, env.sampler, ans, h); got.Wrong != 1 {
		t.Fatalf("one flipped bit: %d rows reported wrong, want 1", got.Wrong)
	}
	ans.Logits[0] = math.Float64frombits(math.Float64bits(ans.Logits[0]) ^ 1<<30)
	if got := checkAnswers(env.model, env.sampler, ans, h); got.Wrong != 2 {
		t.Fatalf("flipped row and logit: %d reported wrong, want 2", got.Wrong)
	}
}

func TestSameSeedSameInputsAndCounts(t *testing.T) {
	first := smokeRecords(t)
	// The stream driver is one goroutine, so its counts repeat exactly.
	// Serving counts depend on how two clients interleave; what the seed
	// fixes there is the op log and the order edges reach the graph.
	exact := map[string][]string{
		"stream-reuse": {"core.memo_hit_ratio", "core.dedup_ratio"},
		"serve-ingest": {"graph.late_frac"},
	}
	for name, metrics := range exact {
		again, err := smokeRun(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if again.OpLogHash != first[name].OpLogHash {
			t.Errorf("%s: same seed, op-log hash %s then %s", name, first[name].OpLogHash, again.OpLogHash)
		}
		for _, m := range metrics {
			if a, b := first[name].Layers[m], again.Layers[m]; a != b || a == 0 {
				t.Errorf("%s: same seed, %s = %v then %v (want equal and non-zero)", name, m, a, b)
			}
		}
		other, err := runWorkload(name, runConfig{Seed: 2, Seconds: 1, Smoke: true})
		if err != nil {
			t.Fatal(err)
		}
		if other.OpLogHash == first[name].OpLogHash {
			t.Errorf("%s: seeds 1 and 2 share op-log hash %s", name, other.OpLogHash)
		}
	}
}

func TestWorkloadsStressDifferentLayers(t *testing.T) {
	recs := smokeRecords(t)
	reuse, cold := recs["stream-reuse"].Layers["core.memo_hit_ratio"], recs["stream-cold"].Layers["core.memo_hit_ratio"]
	if reuse-cold < 0.3 {
		t.Errorf("memo hit ratio: stream-reuse %.3f, stream-cold %.3f; want them at least 0.3 apart", reuse, cold)
	}
	for name, rec := range recs {
		for _, d := range perLayer {
			v := rec.Layers[d.Name]
			var only string
			switch {
			case strings.HasPrefix(d.Name, "batcher."):
				only = "serve-read"
			case strings.HasPrefix(d.Name, "shard."), d.Name == "graph.ingest_us_per_edge", d.Name == "core.invalidated_per_edge":
				only = "serve-ingest"
			default:
				continue
			}
			if name != only && v != 0 {
				t.Errorf("%s: %s = %v, want 0 anywhere but %s", name, d.Name, v, only)
			}
		}
	}
	for _, m := range []string{"batcher.self_us_per_req", "batcher.occupancy_mean", "batcher.queue_wait_p50_us"} {
		if recs["serve-read"].Layers[m] == 0 {
			t.Errorf("serve-read: %s not populated", m)
		}
	}
	for _, m := range []string{"shard.router_self_us_per_req", "shard.apply_us_per_edge", "graph.ingest_us_per_edge", "core.invalidated_per_edge", "graph.late_frac"} {
		if recs["serve-ingest"].Layers[m] == 0 {
			t.Errorf("serve-ingest: %s not populated", m)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	tput := endToEnd[1] // targets_per_s: higher is better
	if tput.Name != "targets_per_s" {
		t.Fatal("table order changed")
	}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	cases := []struct {
		a, b []float64
		want string
	}{
		{tight(100), tight(101), "same"},
		{tight(100), tight(100 * (1 - tput.Bound - 0.05)), "worse"},
		{tight(100), tight(100 * (1 + tput.Bound + 0.05)), "better"},
		{[]float64{50, 80, 100, 130, 170}, tight(60), "unresolved"},
	}
	for _, c := range cases {
		if got := judge("w", tput, c.a, c.b); got.Verdict != c.want {
			t.Errorf("judge(%v, %v) = %s (worse by %.3f, spread %.3f), want %s", c.a, c.b, got.Verdict, got.Worse, got.Spread, c.want)
		}
	}
	fail := endToEnd[len(endToEnd)-1] // fail_frac: absolute bound
	if got := judge("w", fail, []float64{0, 0, 0}, []float64{0.01, 0.01, 0.01}); got.Verdict != "worse" {
		t.Errorf("fail_frac 0 -> 0.01 judged %s, want worse", got.Verdict)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, equal to the tables the program prints from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var gated []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounds && g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, gated, true)
	same("per_layer", spec.PerLayer, perLayer, false)
}

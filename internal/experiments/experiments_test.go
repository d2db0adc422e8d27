package experiments

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"tgopt/internal/device"
	"tgopt/internal/stats"
)

// tinySetup keeps tests fast: ~1-3k edges for the largest dataset.
func tinySetup() Setup {
	return Setup{
		Scale:      0.002,
		BatchSize:  100,
		NodeDim:    16,
		Heads:      2,
		Layers:     2,
		K:          5,
		Runs:       1,
		TimeWindow: 10_000,
		Seed:       1,
	}
}

func TestLoadWorkload(t *testing.T) {
	s := tinySetup()
	wl, err := LoadWorkload("snap-msg", s)
	if err != nil {
		t.Fatal(err)
	}
	if wl.DS.Graph.NumEdges() == 0 {
		t.Fatal("empty workload")
	}
	if wl.Model.Cfg.NodeDim != 16 || wl.Sampler.K() != 5 {
		t.Fatal("setup not applied")
	}
	if _, err := LoadWorkload("nope", s); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestSetupHelpers(t *testing.T) {
	s := DefaultSetup()
	if s.EffectiveCacheLimit() != 8000 {
		t.Fatalf("default scaled cache limit = %d", s.EffectiveCacheLimit())
	}
	s.CacheLimit = 123
	if s.EffectiveCacheLimit() != 123 {
		t.Fatal("explicit cache limit ignored")
	}
	s.CacheLimit = 0
	s.Scale = 1e-9
	if s.EffectiveCacheLimit() != 1024 {
		t.Fatal("cache limit floor missing")
	}
	if CPU.String() != "cpu" || GPU.String() != "gpu(sim)" {
		t.Fatal("DeviceKind strings wrong")
	}
	if err := DefaultSetup().ModelConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTable1DuplicationShape(t *testing.T) {
	s := tinySetup()
	var buf bytes.Buffer
	rows, err := Table1(&buf, s, []string{"jodie-mooc", "snap-msg"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Layer) != s.Layers+1 {
			t.Fatalf("%s: %d layer entries", r.Dataset, len(r.Layer))
		}
		// The paper's Table 1 shape: duplication increases down the
		// layers (layer 0 ≫ layer L).
		if r.Layer[0] <= r.Layer[s.Layers] {
			t.Fatalf("%s: layer-0 dup %.2f not above layer-%d dup %.2f",
				r.Dataset, r.Layer[0], s.Layers, r.Layer[s.Layers])
		}
		if r.Layer[0] < 0.5 {
			t.Fatalf("%s: layer-0 dup %.2f implausibly low", r.Dataset, r.Layer[0])
		}
		for l, v := range r.Layer {
			if v < 0 || v > 1 {
				t.Fatalf("%s layer %d ratio %v out of [0,1]", r.Dataset, l, v)
			}
		}
	}
	if !strings.Contains(buf.String(), "jodie-mooc") {
		t.Fatal("output missing dataset name")
	}
}

func TestFigure3ReuseOvertakesRecompute(t *testing.T) {
	s := tinySetup()
	points, err := Figure3(nil, s, "jodie-lastfm", 10)
	if err != nil {
		t.Fatal(err)
	}
	var reuse, recompute int64
	for _, p := range points {
		reuse += p.Reused
		recompute += p.Recomputed
	}
	if recompute == 0 {
		t.Fatal("nothing recomputed (cache cannot be prefilled)")
	}
	if reuse == 0 {
		t.Fatal("nothing reused on a repetitive dataset")
	}
	// The Figure 3 trend: late-lifetime buckets reuse more than the
	// first bucket.
	last := points[len(points)-1]
	if last.Reused == 0 && last.Recomputed == 0 {
		// Last bucket may be empty at tiny scale; find the last nonempty.
		for i := len(points) - 1; i >= 0; i-- {
			if points[i].Reused+points[i].Recomputed > 0 {
				last = points[i]
				break
			}
		}
	}
	if points[0].Reused >= last.Reused && last.Reused == 0 {
		t.Fatal("reuse did not grow over the lifetime")
	}
}

func TestFigure4HeavyHead(t *testing.T) {
	// snap-msg at the test scale has too few edges for the distribution
	// to develop its head; jodie-mooc (many events per item) shows it.
	s := tinySetup()
	buckets, err := Figure4(nil, s, "jodie-mooc", 12)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		t.Fatal("no deltas collected")
	}
	// Heavy tail: the bucket mass must be concentrated well below the
	// distribution's midpoint-by-value — i.e. most deltas live in
	// buckets whose upper edge is under the geometric middle of the
	// range (right-skewed, power-law-like).
	mid := buckets[len(buckets)-1].Hi
	var below int64
	for _, b := range buckets {
		if b.Hi <= mid/16 { // four geometric decades below the max edge
			below += b.Count
		}
	}
	if float64(below) < 0.5*float64(total) {
		t.Fatalf("Δt distribution not heavy-tailed: %d of %d below max/16", below, total)
	}
}

func TestFigure5SpeedupOnRepetitiveData(t *testing.T) {
	s := tinySetup()
	var buf bytes.Buffer
	rows, err := Figure5(&buf, s, []string{"jodie-lastfm"}, CPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Attention is nearly all of the CPU baseline's time, and the paper's
	// smallest CPU speedup is 3×: TGOpt must compute under half the
	// baseline's attention rows.
	if r := rows[0]; r.BaselineRows <= 0 || 2*r.OptimizedRows >= r.BaselineRows {
		t.Fatalf("TGOpt computed %d attention rows, baseline %d: want under half",
			r.OptimizedRows, r.BaselineRows)
	}
	if !strings.Contains(buf.String(), "geomean") {
		t.Fatal("missing geomean line")
	}
}

func TestFigure5SimulatedGPU(t *testing.T) {
	s := tinySetup()
	// The simulated runtime prices counted work, so one run a side is
	// the answer, not a sample.
	rows, err := Figure5(nil, s, []string{"jodie-lastfm"}, GPU)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Baseline <= 0 || r.Optimized <= 0 {
		t.Fatal("simulated runtimes not positive")
	}
	if r.BaselineStd != 0 || r.OptimizedStd != 0 {
		t.Fatalf("priced runs spread: std %v / %v", r.BaselineStd, r.OptimizedStd)
	}
	if sp := r.Speedup(); sp <= 1.0 {
		t.Fatalf("simulated GPU speedup = %.2fx, want > 1", sp)
	}
}

// TestGPUResultsRepeatExactly pins that every GPU number is priced from
// counted work: two runs of each GPU driver return identical results.
func TestGPUResultsRepeatExactly(t *testing.T) {
	s := tinySetup()
	names := []string{"jodie-lastfm"}
	drivers := map[string]func() (any, error){
		"Figure5": func() (any, error) { return Figure5(nil, s, names, GPU) },
		"Table3":  func() (any, error) { return Table3(nil, s, names, GPU) },
		"Table4":  func() (any, error) { return Table4(nil, s, names, GPU) },
		"Table5":  func() (any, error) { return Table5(nil, s, names) },
	}
	for name, run := range drivers {
		first, err := run()
		if err != nil {
			t.Fatal(err)
		}
		second, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s differs between two runs:\n%+v\n%+v", name, first, second)
		}
	}
}

func TestFigure6AblationMonotoneFromCache(t *testing.T) {
	s := tinySetup()
	rows, err := Figure6(nil, s, []string{"jodie-lastfm"}, CPU)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if len(r.Speedups) != 4 {
		t.Fatalf("steps = %d", len(r.Speedups))
	}
	if r.Speedups[0] != 1 {
		t.Fatalf("baseline step speedup = %v", r.Speedups[0])
	}
	for i, rt := range r.Runtimes {
		if rt <= 0 {
			t.Fatalf("step %d runtime %v", i, rt)
		}
	}
	// What each step buys is rows it never sends through attention; the
	// wall-clock ratio at this size is noise once attention is cheap.
	if r.AttnRows[1] >= r.AttnRows[0] {
		t.Fatalf("+cache step computed no fewer rows: %v", r.AttnRows)
	}
	if r.AttnRows[3] >= r.AttnRows[1] {
		t.Fatalf("full TGOpt computed no fewer rows than +cache: %v", r.AttnRows)
	}
}

// TestFigure6GPUTimeStepRegresses pins Figure 6 bottom: on the priced
// GPU, gathering and shipping time-table rows costs more than the
// kernels they replace, so "+time" falls below "+dedup". It needs the
// committed setup's batches: at tinySetup's (100 targets, k=5, d=16)
// the launches the table saves still outweigh the rows it ships.
func TestFigure6GPUTimeStepRegresses(t *testing.T) {
	rows, err := Figure6(nil, DefaultSetup(), []string{"snap-msg"}, GPU)
	if err != nil {
		t.Fatal(err)
	}
	sp := rows[0].Speedups
	if sp[2] <= 1 {
		t.Fatalf("+dedup does not beat the baseline on GPU: %v", sp)
	}
	if sp[3] >= sp[2] {
		t.Fatalf("+time %.2fx not below +dedup %.2fx on GPU: %v", sp[3], sp[2], sp)
	}
}

func TestTable3BreakdownShape(t *testing.T) {
	s := tinySetup()
	var buf bytes.Buffer
	results, err := Table3(&buf, s, []string{"jodie-lastfm"}, CPU)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Baseline[stats.OpAttention] <= 0 || r.Optimized[stats.OpAttention] <= 0 {
		t.Fatal("attention timings missing")
	}
	// TGOpt must cut the attention work (the paper's headline effect,
	// ~10× in its Table 3): under half the baseline's rows.
	if r.BaselineRows <= 0 || 2*r.OptimizedRows >= r.BaselineRows {
		t.Fatalf("attention rows not halved: base %d, ours %d", r.BaselineRows, r.OptimizedRows)
	}
	// Baseline must not contain TGOpt-only ops.
	if r.Baseline[stats.OpCacheLookup] != 0 || r.Baseline[stats.OpDedupFilter] != 0 {
		t.Fatal("baseline recorded TGOpt-only operations")
	}
	if r.HitRate <= 0 || r.HitRate > 1 {
		t.Fatalf("hit rate %v", r.HitRate)
	}
	if r.CacheBytes <= 0 || r.CacheItems <= 0 {
		t.Fatal("cache accounting missing")
	}
	out := buf.String()
	if !strings.Contains(out, "avg hit rate") || !strings.Contains(out, "used cache size") {
		t.Fatal("output missing metrics")
	}
}

func TestTable4LimitSweep(t *testing.T) {
	s := tinySetup()
	cells, err := Table4(nil, s, []string{"jodie-lastfm"}, GPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Memory usage and hit rate are non-decreasing in the limit (both
	// deterministic, unlike runtime).
	for i := 1; i < len(cells); i++ {
		if cells[i].Bytes < cells[i-1].Bytes {
			t.Fatalf("memory decreased with larger limit: %v", cells)
		}
		if cells[i].Limit < cells[i-1].Limit {
			t.Fatal("limits not increasing")
		}
		if cells[i].HitRate+1e-9 < cells[i-1].HitRate {
			t.Fatalf("hit rate decreased with larger limit: %v then %v",
				cells[i-1].HitRate, cells[i].HitRate)
		}
	}
	// A starved cache must hit far less than a roomy one.
	if cells[3].HitRate < 2*cells[0].HitRate {
		t.Fatalf("limit sweep shows no pressure: %v vs %v", cells[0].HitRate, cells[3].HitRate)
	}
	// What a larger cache buys, counted rather than timed: the rows
	// sent through attention never grow with the limit, and the roomiest
	// cache computes strictly fewer than the starved one.
	for i := 1; i < len(cells); i++ {
		if cells[i].AttnRows > cells[i-1].AttnRows {
			t.Fatalf("larger cache computed more rows: %d at limit %d, %d at limit %d",
				cells[i-1].AttnRows, cells[i-1].Limit, cells[i].AttnRows, cells[i].Limit)
		}
	}
	if cells[0].AttnRows <= 0 || cells[3].AttnRows >= cells[0].AttnRows {
		t.Fatalf("limit sweep saved no attention rows: %d at limit %d, %d at limit %d",
			cells[0].AttnRows, cells[0].Limit, cells[3].AttnRows, cells[3].Limit)
	}
}

func TestTable5DtoDDominatesOnDevice(t *testing.T) {
	s := tinySetup()
	results, err := Table5(nil, s, []string{"jodie-lastfm"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	host, dev := results[0], results[1]
	if host.Placement != device.CacheOnHost || dev.Placement != device.CacheOnDevice {
		t.Fatal("placement order wrong")
	}
	if host.Total <= 0 {
		t.Fatal("no simulated time priced")
	}
	// A host-resident cache ships looked-up batches to the device and
	// computed rows back.
	if host.Transfers[device.HtoD].Bytes == 0 {
		t.Fatal("host-resident cache produced no HtoD traffic")
	}
	if host.Transfers[device.DtoH].Bytes == 0 {
		t.Fatal("cache stores produced no DtoH traffic")
	}
	if host.Transfers[device.DtoD].Time >= host.Transfers[device.HtoD].Time {
		t.Fatalf("host-resident cache: DtoD (%v) should be below HtoD (%v)",
			host.Transfers[device.DtoD].Time, host.Transfers[device.HtoD].Time)
	}
	// Table 5's shape: storing on device makes DtoD the dominant mover,
	// in many small copies.
	if dev.Transfers[device.DtoD].Time <= host.Transfers[device.DtoD].Time {
		t.Fatal("device-resident cache did not increase DtoD time")
	}
	if dev.Transfers[device.DtoD].Calls <= host.Transfers[device.DtoD].Calls {
		t.Fatal("device-resident cache should issue many small DtoD copies")
	}
	if dev.Pct(device.DtoD) <= host.Pct(device.DtoD) {
		t.Fatal("DtoD share did not grow with device-resident cache")
	}
}

func TestFigure7HitRateRises(t *testing.T) {
	s := tinySetup()
	series, err := Figure7(nil, s, []string{"jodie-lastfm"})
	if err != nil {
		t.Fatal(err)
	}
	rates := series[0].Rates
	if len(rates) < 5 {
		t.Fatalf("too few lookups recorded: %d", len(rates))
	}
	if rates[len(rates)-1] <= rates[0] {
		t.Fatalf("hit rate did not rise: first %v last %v", rates[0], rates[len(rates)-1])
	}
}

func TestCompareSampling(t *testing.T) {
	s := tinySetup()
	res, err := CompareSampling(nil, s, "jodie-lastfm")
	if err != nil {
		t.Fatal(err)
	}
	// The cache is what only most-recent sampling may use; on top of
	// dedup and the time table it must at least halve the rows uniform
	// sampling leaves (at DefaultSetup the speedups differ ~4×).
	if res.UniformRows <= 0 || 2*res.MostRecentRows >= res.UniformRows {
		t.Fatalf("most-recent (cacheable) computed %d attention rows, uniform %d: want under half",
			res.MostRecentRows, res.UniformRows)
	}
}

func TestMeasureRunsStd(t *testing.T) {
	s := tinySetup()
	wl, err := LoadWorkload("snap-msg", s)
	if err != nil {
		t.Fatal(err)
	}
	mean, std, rows := MeasureRuns(wl, baselineOptions(), CPU, 2)
	if mean <= 0 || rows <= 0 {
		t.Fatal("mean or rows not positive")
	}
	if std < 0 {
		t.Fatal("negative std")
	}
	// A priced run repeats exactly: GPU runs once and has no spread.
	if _, std, _ := MeasureRuns(wl, baselineOptions(), GPU, 3); std != 0 {
		t.Fatalf("GPU std = %v, want 0", std)
	}
	// n<1 clamps to 1.
	m2, _, _ := MeasureRuns(wl, baselineOptions(), CPU, 0)
	if m2 <= 0 {
		t.Fatal("clamped run count broken")
	}
}

func TestTable2StatisticsMatchSpecs(t *testing.T) {
	s := tinySetup()
	rows, err := Table2(nil, s, []string{"jodie-lastfm", "snap-msg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GenEdges != r.SpecEdges {
			t.Fatalf("%s: generated %d edges, spec %d", r.Dataset, r.GenEdges, r.SpecEdges)
		}
		if r.GenNodes != r.SpecNodes {
			t.Fatalf("%s: generated %d nodes, spec %d", r.Dataset, r.GenNodes, r.SpecNodes)
		}
		if r.MeanDegree <= 0 {
			t.Fatalf("%s: zero mean degree", r.Dataset)
		}
	}
	if !rows[0].Bipartite || rows[1].Bipartite {
		t.Fatal("bipartite flags wrong")
	}
}

func TestTrainDedupFaithfulAndMeasured(t *testing.T) {
	s := tinySetup()
	s.Layers = 1 // keep the training fast
	res, err := TrainDedup(nil, s, "snap-msg", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plain <= 0 || res.Dedup <= 0 {
		t.Fatal("timings not positive")
	}
	// Dedup must not change what is learned.
	if res.FinalDelta > 1e-4 {
		t.Fatalf("dedup changed the training trajectory: delta %g", res.FinalDelta)
	}
}

func TestBatchSweep(t *testing.T) {
	s := tinySetup()
	points, err := BatchSweep(nil, s, "jodie-wiki", []int{50, 200, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 { // the zero size is skipped
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.Baseline <= 0 || p.Optimized <= 0 {
			t.Fatalf("batch %d: non-positive runtimes", p.BatchSize)
		}
	}
}

func TestFigureSVGAdapters(t *testing.T) {
	s := tinySetup()
	points, err := Figure3(nil, s, "jodie-lastfm", 8)
	if err != nil {
		t.Fatal(err)
	}
	if svg := Figure3SVG("jodie-lastfm", points); !strings.Contains(svg, "<svg") || !strings.Contains(svg, "reused") {
		t.Fatal("Figure3SVG malformed")
	}
	buckets, err := Figure4(nil, s, "jodie-mooc", 8)
	if err != nil {
		t.Fatal(err)
	}
	if svg := Figure4SVG("jodie-mooc", buckets); !strings.Contains(svg, "Time-delta") {
		t.Fatal("Figure4SVG malformed")
	}
	rows, err := Figure5(nil, s, []string{"snap-msg"}, CPU)
	if err != nil {
		t.Fatal(err)
	}
	if svg := Figure5SVG(rows); !strings.Contains(svg, "snap-msg") {
		t.Fatal("Figure5SVG malformed")
	}
	arows, err := Figure6(nil, s, []string{"snap-msg"}, CPU)
	if err != nil {
		t.Fatal(err)
	}
	if svg := Figure6SVG(arows); !strings.Contains(svg, "+cache") {
		t.Fatal("Figure6SVG malformed")
	}
	if svg := Figure6SVG(nil); !strings.Contains(svg, "<svg") {
		t.Fatal("empty Figure6SVG malformed")
	}
	series, err := Figure7(nil, s, []string{"snap-msg"})
	if err != nil {
		t.Fatal(err)
	}
	if svg := Figure7SVG(series); !strings.Contains(svg, "hit rate") {
		t.Fatal("Figure7SVG malformed")
	}
	dir := t.TempDir()
	path, err := WriteSVG(dir, "x", Figure7SVG(series))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestWarmStartBeatsCold(t *testing.T) {
	s := tinySetup()
	res, err := WarmStart(nil, s, "jodie-lastfm", 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold <= 0 || res.Warm <= 0 || res.Batches < 1 {
		t.Fatalf("degenerate result %+v", res)
	}
	// The restored cache must produce immediate hits on the stream tail.
	if res.WarmHit <= 0 {
		t.Fatal("warm engine had no cache hits")
	}
	// The restored cache must save recomputation, not just report hits.
	if res.WarmMisses >= res.ColdMisses {
		t.Fatalf("warm start recomputed no fewer rows than cold: %d vs %d", res.WarmMisses, res.ColdMisses)
	}
}

func TestCSVEmitters(t *testing.T) {
	dir := t.TempDir()
	h, rows := Table1CSV([]Table1Row{{Dataset: "d", Layer: []float64{0.9, 0.5, 0}}})
	if len(h) != 3 || len(rows) != 3 {
		t.Fatalf("Table1CSV %d header cols, %d rows", len(h), len(rows))
	}
	path, err := WriteCSVFile(dir, "t1", h, rows)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "dataset,layer,duplication\n") {
		t.Fatalf("csv header wrong: %q", data[:40])
	}
	// The remaining adapters produce aligned rows.
	if h, rs := Figure5CSV([]Figure5Row{{Dataset: "d"}}); len(h) != 7 || len(rs[0]) != 7 {
		t.Fatal("Figure5CSV misaligned")
	}
	if h, rs := Figure6CSV([]Figure6Row{{Dataset: "d", Labels: []string{"a"}, Runtimes: []time.Duration{1}, Speedups: []float64{1}}}); len(h) != 5 || len(rs[0]) != 5 {
		t.Fatal("Figure6CSV misaligned")
	}
	if h, rs := Figure7CSV([]Figure7Series{{Dataset: "d", Rates: []float64{0.5}}}); len(h) != 3 || len(rs[0]) != 3 {
		t.Fatal("Figure7CSV misaligned")
	}
	if h, rs := Figure3CSV([]Figure3Point{{Time: 1}}); len(h) != 3 || len(rs[0]) != 3 {
		t.Fatal("Figure3CSV misaligned")
	}
	if h, rs := Table4CSV([]Table4Cell{{Dataset: "d"}}); len(h) != 5 || len(rs[0]) != 5 {
		t.Fatal("Table4CSV misaligned")
	}
	if h, rs := Table5CSV([]Table5Result{{Dataset: "d"}}); len(h) != 7 || len(rs) != 3 || len(rs[0]) != 7 {
		t.Fatal("Table5CSV misaligned")
	}
}

// DefaultSetup returns the laptop-scale configuration used by the
// committed EXPERIMENTS.md numbers.
func DefaultSetup() Setup {
	return Setup{
		Scale:      0.004,
		BatchSize:  200,
		NodeDim:    32,
		Heads:      2,
		Layers:     2,
		K:          10,
		Runs:       3,
		TimeWindow: 10_000,
		Seed:       1,
	}
}

package core

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"tgopt/internal/nn"
	"tgopt/internal/parallel"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// quantCache builds an int8 cache for tests.
func quantCache(limit, dim, shards int) *Cache {
	return NewCacheWith(CacheConfig{Limit: limit, Dim: dim, Shards: shards, Quant: true})
}

// TestQuantCacheRoundTrip: an int8 cache reconstructs stored rows
// within the per-vector quantization step (scale/2 per element, scale
// = maxabs/127), and reports the smaller per-entry footprint.
func TestQuantCacheRoundTrip(t *testing.T) {
	const dim = 16
	c := quantCache(100, dim, 4)
	r := tensor.NewRNG(3)
	keys := make([]uint64, 20)
	vals := tensor.Randn(r, 20, dim)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	c.Store(keys, vals)
	dst := tensor.New(20, dim)
	hits := make([]bool, 20)
	if nh := c.LookupInto(keys, dst, hits); nh != 20 {
		t.Fatalf("hits = %d, want 20", nh)
	}
	for i := 0; i < 20; i++ {
		var maxAbs float64
		for _, v := range vals.Row(i) {
			if a := float64(v); a > maxAbs {
				maxAbs = a
			} else if -a > maxAbs {
				maxAbs = -a
			}
		}
		tol := maxAbs/254 + 1e-6 // scale/2
		for j, v := range vals.Row(i) {
			got := float64(dst.At(i, j))
			if d := got - float64(v); d > tol || -d > tol {
				t.Fatalf("row %d dim %d: reconstruction error %g exceeds quant step %g", i, j, d, tol)
			}
		}
	}
	fc := NewCache(100, dim, 4)
	fc.Store(keys, vals)
	if c.UsedBytes() >= fc.UsedBytes() {
		t.Fatalf("int8 cache footprint %d not below float32 %d", c.UsedBytes(), fc.UsedBytes())
	}
}

// TestEntriesForBudgetQuant: the same byte budget holds more int8
// entries than float32 entries, by exactly the payload shrink.
func TestEntriesForBudgetQuant(t *testing.T) {
	const dim, budget = 32, 1 << 20
	f := EntriesForBudgetQuant(budget, dim, false)
	q := EntriesForBudgetQuant(budget, dim, true)
	if q <= f {
		t.Fatalf("int8 entries %d not above float32 %d at equal budget", q, f)
	}
	wantF := budget / (4*dim + cacheEntryOverhead)
	wantQ := budget / (4 + dim + cacheEntryOverhead)
	if f != wantF || q != wantQ {
		t.Fatalf("capacities (%d, %d), want (%d, %d)", f, q, wantF, wantQ)
	}
}

// TestQuantCacheLookupSteadyStateAllocs pins satellite 2 for the core
// layer: the int8 decode path of a warm lookup allocates nothing.
func TestQuantCacheLookupSteadyStateAllocs(t *testing.T) {
	old := parallel.Degree()
	parallel.SetDegree(1)
	defer parallel.SetDegree(old)

	const dim, n = 16, 64
	c := quantCache(2*n, dim, 4)
	r := tensor.NewRNG(5)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	c.Store(keys, tensor.Randn(r, n, dim))
	dst := tensor.New(n, dim)
	hits := make([]bool, n)
	run := func() {
		if c.LookupInto(keys, dst, hits) != n {
			t.Fatal("warm lookup missed")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("quant LookupInto allocated %v times/op in steady state, want 0", allocs)
	}
}

// TestQuantEngineSteadyStateAllocs extends the DESIGN.md §9 pin to the
// int8 configuration: warm EmbedWith + ScoreWith over the quantized
// cache and time table allocate nothing.
func TestQuantEngineSteadyStateAllocs(t *testing.T) {
	old := parallel.Degree()
	parallel.SetDegree(1)
	defer parallel.SetDegree(old)

	_, m, s := engineTestSetup(t, 500)
	opt := OptAll()
	opt.Quant = QuantInt8
	eng := NewEngine(m, s, opt)
	nodes := []int32{1, 2, 3, 1, 26, 30, 7, 12}
	ts := []float64{4e4, 4e4, 3e4, 4e4, 4.5e4, 2e4, 3.5e4, 4.2e4}
	ar := tensor.NewArena()
	nb := len(nodes) / 2
	run := func() {
		ar.Reset()
		h := eng.EmbedWith(ar, nodes, ts)
		d := h.Dim(1)
		hSrc := ar.Wrap(h.Data()[:nb*d], nb, d)
		hDst := ar.Wrap(h.Data()[nb*d:], nb, d)
		eng.ScoreWith(ar, hSrc, hDst)
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("int8 EmbedWith allocated %v times/op in steady state, want 0", allocs)
	}
}

// TestQuantEngineCloseToBaseline: the int8 engine's logits track the
// float baseline within what reading layer-1 rows and Φ(Δt) back from
// int8 stores costs — the end-to-end correctness bound behind
// experiments.TestQuantAPWithinGate.
func TestQuantEngineCloseToBaseline(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	base := tgat.StreamInference(ds.Graph, m, 100, m.BaselineEmbedFunc(s))
	opt := OptAll()
	opt.Quant = QuantInt8
	eng := NewEngine(m, s, opt)
	got := tgat.StreamInferenceArenaScored(ds.Graph, m, 100, 1, eng.EmbedArenaFunc(), eng)
	var maxd float64
	for i := range base.Scores {
		d := base.Scores[i] - got.Scores[i]
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	// Measured 0.0025 on this stream; the bound is 4× that.
	if maxd > 0.01 {
		t.Fatalf("int8 stream logits diverge from baseline by %g", maxd)
	}
	if maxd == 0 {
		t.Fatal("int8 engine produced bit-identical logits — the int8 stores evidently not engaged")
	}
}

// TestQuantWithNothingAtRestIsFloat32Bitwise pins that there is one
// compute path: with the cache and the time table off nothing is stored,
// so an int8 engine returns the float32 engine's embeddings and logits
// bit for bit. Every int8/float32 difference comes from a row read back
// from an int8 store (TestQuantEngineCloseToBaseline sees it) and from
// nowhere else.
func TestQuantWithNothingAtRestIsFloat32Bitwise(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	opt := Options{EnableDedup: true}
	fEng := NewEngine(m, s, opt)
	opt.Quant = QuantInt8
	qEng := NewEngine(m, s, opt)
	ar, qar := tensor.NewArena(), tensor.NewArena()
	edges := ds.Graph.Edges()
	const bs = 100
	for lo := 0; lo < len(edges); lo += bs {
		batch := edges[lo:min(lo+bs, len(edges))]
		nb := len(batch)
		nodes, ts := make([]int32, 2*nb), make([]float64, 2*nb)
		for i, e := range batch {
			nodes[i], nodes[nb+i] = e.Src, e.Dst
			ts[i], ts[nb+i] = e.Time, e.Time
		}
		ar.Reset()
		qar.Reset()
		d := m.Cfg.NodeDim
		score := func(eng *Engine, ar *tensor.Arena) (h, logits []float32) {
			h = eng.EmbedWith(ar, nodes, ts).Data()
			return h, eng.ScoreWith(ar, ar.Wrap(h[:nb*d], nb, d), ar.Wrap(h[nb*d:], nb, d)).Data()
		}
		fh, fl := score(fEng, ar)
		qh, ql := score(qEng, qar)
		for i := range fh {
			if math.Float32bits(fh[i]) != math.Float32bits(qh[i]) {
				t.Fatalf("batch at %d: embedding element %d differs (float32 %v, int8 %v)", lo, i, fh[i], qh[i])
			}
		}
		for i := range fl {
			if math.Float32bits(fl[i]) != math.Float32bits(ql[i]) {
				t.Fatalf("batch at %d: logit %d differs (float32 %v, int8 %v)", lo, i, fl[i], ql[i])
			}
		}
	}
}

// TestQuantSnapshotRoundTrip pins satellite 3's positive half: an int8
// engine's caches survive save/load, and the restored engine serves
// from the warm entries at matching precision.
func TestQuantSnapshotRoundTrip(t *testing.T) {
	ds, m, s := engineTestSetup(t, 600)
	opt := OptAll()
	opt.Quant = QuantInt8
	eng := NewEngine(m, s, opt)
	tgat.StreamInferenceArenaScored(ds.Graph, m, 100, 1, eng.EmbedArenaFunc(), eng)
	warmLen := eng.CacheLen()
	if warmLen == 0 {
		t.Fatal("no warm state to persist")
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}

	eng2 := NewEngine(m, s, opt)
	if err := eng2.LoadCaches(path); err != nil {
		t.Fatal(err)
	}
	if eng2.CacheLen() != warmLen {
		t.Fatalf("restored %d entries, warm had %d", eng2.CacheLen(), warmLen)
	}
	nodes := []int32{1, 2, 3}
	ts := []float64{4e4, 4e4, 4.9e4}
	want := eng.Embed(nodes, ts)
	got := eng2.Embed(nodes, ts)
	if d := got.MaxAbsDiff(want); d > 1e-5 {
		t.Fatalf("warm-restored int8 embeddings differ by %g", d)
	}
}

// TestQuantSnapshotRefusedAcrossPrecisions pins satellite 3's refusal
// half: a float32 cache refuses an int8 snapshot (and vice versa) with
// an error that names the precision mismatch — loading across
// precisions would silently reinterpret payload bytes.
func TestQuantSnapshotRefusedAcrossPrecisions(t *testing.T) {
	const dim = 8
	r := tensor.NewRNG(7)
	keys := []uint64{1, 2, 3}
	vals := tensor.Randn(r, 3, dim)

	qc := quantCache(10, dim, 1)
	qc.Store(keys, vals)
	var qbuf bytes.Buffer
	if _, err := qc.WriteTo(&qbuf); err != nil {
		t.Fatal(err)
	}
	fc := NewCache(10, dim, 1)
	fc.Store(keys, vals)
	var fbuf bytes.Buffer
	if _, err := fc.WriteTo(&fbuf); err != nil {
		t.Fatal(err)
	}

	if _, err := NewCache(10, dim, 1).ReadFrom(bytes.NewReader(qbuf.Bytes())); err == nil {
		t.Fatal("float32 cache accepted an int8 snapshot")
	} else if !strings.Contains(err.Error(), "quantized") {
		t.Fatalf("refusal does not name the precision mismatch: %v", err)
	}
	if _, err := quantCache(10, dim, 1).ReadFrom(bytes.NewReader(fbuf.Bytes())); err == nil {
		t.Fatal("int8 cache accepted a float32 snapshot")
	} else if !strings.Contains(err.Error(), "float32") {
		t.Fatalf("refusal does not name the precision mismatch: %v", err)
	}

	// A failed cross-precision load must leave the target untouched.
	tc := quantCache(10, dim, 1)
	tc.Store(keys, vals)
	if _, err := tc.ReadFrom(bytes.NewReader(fbuf.Bytes())); err == nil {
		t.Fatal("cross-precision load accepted")
	}
	if tc.Len() != 3 {
		t.Fatalf("failed load disturbed the cache: %d entries", tc.Len())
	}

	// Truncated int8 snapshots fail cleanly too.
	if _, err := quantCache(10, dim, 1).ReadFrom(bytes.NewReader(qbuf.Bytes()[:qbuf.Len()/2])); err == nil {
		t.Fatal("truncated int8 snapshot accepted")
	}
}

// TestQuantEngineRefusesFloatSnapshot is the serving-facing variant:
// a float32 server pointed at an int8 warm-start file (or the
// reverse) errors out instead of loading garbage.
func TestQuantEngineRefusesFloatSnapshot(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	fEng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, fEng.EmbedFunc())
	dir := t.TempDir()
	fPath := filepath.Join(dir, "float.bin")
	if err := fEng.SaveCaches(fPath); err != nil {
		t.Fatal(err)
	}
	qOpt := OptAll()
	qOpt.Quant = QuantInt8
	qEng := NewEngine(m, s, qOpt)
	if err := qEng.LoadCaches(fPath); err == nil {
		t.Fatal("int8 engine loaded a float32 snapshot")
	}
	tgat.StreamInferenceArenaScored(ds.Graph, m, 100, 1, qEng.EmbedArenaFunc(), qEng)
	qPath := filepath.Join(dir, "int8.bin")
	if err := qEng.SaveCaches(qPath); err != nil {
		t.Fatal(err)
	}
	if err := fEng.LoadCaches(qPath); err == nil {
		t.Fatal("float32 engine loaded an int8 snapshot")
	}
}

// TestQuantTimeTable: the quantized Δt table answers within the
// quantization step of the exact encoder, keeps Φ(0) exact, and is
// smaller than the float table.
func TestQuantTimeTable(t *testing.T) {
	enc := nn.NewTimeEncoder(8)
	qt := NewTimeTableQuant(enc, 64)
	ft := NewTimeTable(enc, 64)
	if !qt.Quant() || ft.Quant() {
		t.Fatal("Quant() flags wrong")
	}
	if qt.Bytes() >= ft.Bytes() {
		t.Fatalf("quant table %d B not below float %d B", qt.Bytes(), ft.Bytes())
	}
	if !qt.Verify(0.02) {
		t.Fatal("quant table rows exceed quantization tolerance")
	}
	// Φ(0) stays exact: the z_i path must not pick up systematic error.
	d := enc.Dim()
	z := tensor.New(3, d)
	qt.EncodeZerosInto(3, z)
	exact := enc.EncodeScalar(0)
	for j := 0; j < d; j++ {
		if z.At(0, j) != exact.At(j) {
			t.Fatal("quant table Φ(0) not exact")
		}
	}
	// Hits dequantize close to the exact rows; misses stay exact.
	dts := []float64{0, 5, 63, 63.5, 100}
	qout := tensor.New(len(dts), d)
	hits := qt.EncodeInto(dts, qout)
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	fout := tensor.New(len(dts), d)
	ft.EncodeInto(dts, fout)
	if diff := qout.MaxAbsDiff(fout); diff > 0.02 {
		t.Fatalf("quant table rows differ from float by %g", diff)
	}
	for i := 3; i < 5; i++ {
		for j := 0; j < d; j++ {
			if qout.At(i, j) != fout.At(i, j) {
				t.Fatal("miss-path encodings must be exact at both precisions")
			}
		}
	}
}

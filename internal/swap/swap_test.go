package swap

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

const (
	testNodes = 24
	testDim   = 16
)

// testModel builds the deterministic small model the swap tests share;
// seed varies the parameter init so distinct versions have distinct
// tensors over identical feature tables.
func testModel(t *testing.T, seed uint64) *tgat.Model {
	t.Helper()
	const maxEdges = 4096
	r := tensor.NewRNG(1)
	nodeFeat := tensor.Randn(r, testNodes+1, testDim)
	edgeFeat := tensor.Randn(r, maxEdges+1, testDim)
	for j := 0; j < testDim; j++ {
		nodeFeat.Set(0, 0, j)
		edgeFeat.Set(0, 0, j)
	}
	cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: testDim, EdgeDim: testDim, TimeDim: testDim, NumNeighbors: 4, Seed: seed}
	m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testDynamic(t *testing.T, n int) *graph.Dynamic {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	dyn := graph.NewDynamic(testNodes)
	for i := 0; i < n; i++ {
		e := graph.Edge{
			Src:  int32(1 + rng.Intn(testNodes-1)),
			Dst:  int32(1 + rng.Intn(testNodes-1)),
			Time: float64(10 * (i + 1)),
		}
		if _, _, err := dyn.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	return dyn
}

func paramBytes(m *tgat.Model) []float32 {
	var out []float32
	for _, p := range m.Params() {
		out = append(out, p.Data()...)
	}
	return out
}

func TestPublishLatestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := testModel(t, 2)

	if _, _, err := Latest(nil, dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty dir: want fs.ErrNotExist, got %v", err)
	}

	if err := Publish(nil, dir, m, 1); err != nil {
		t.Fatal(err)
	}
	v, path, err := Latest(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || path != ParamsPath(dir, 1) {
		t.Fatalf("got v%d %q", v, path)
	}
	// A differently-initialized model of the same shape loads the
	// published params and lands on identical tensors.
	m2 := testModel(t, 9)
	sp, err := m2.ParseParamsFS(checkpoint.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	m2 = m2.WithParams(sp, v)
	a, b := paramBytes(m), paramBytes(m2)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("param %d differs after roundtrip: %v vs %v", i, a[i], b[i])
		}
	}

	// Publishing a newer version flips the manifest; the old params
	// file stays on disk for rollback.
	if err := Publish(nil, dir, m2, 2); err != nil {
		t.Fatal(err)
	}
	if v, _, err = Latest(nil, dir); err != nil || v != 2 {
		t.Fatalf("after republish: v%d err %v", v, err)
	}
	if _, err := os.Stat(ParamsPath(dir, 1)); err != nil {
		t.Fatalf("v1 params gone: %v", err)
	}
}

func TestLatestRejectsCorruptManifest(t *testing.T) {
	dir := t.TempDir()
	if err := Publish(nil, dir, testModel(t, 2), 7); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipBit(filepath.Join(dir, ManifestName), 150); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(nil, dir); err == nil {
		t.Fatal("bit-flipped manifest accepted")
	}
}

func TestFineTuneTrainsCloneNotServingModel(t *testing.T) {
	m := testModel(t, 2)
	before := paramBytes(m)
	dyn := testDynamic(t, 60)

	cfg := trainer.DefaultConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 16
	clone, res, err := FineTune(m, dyn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochLoss) != 1 {
		t.Fatalf("epochs run: %d", len(res.EpochLoss))
	}
	after := paramBytes(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("serving model param %d mutated by fine-tune", i)
		}
	}
	cb := paramBytes(clone)
	changed := false
	for i := range before {
		if cb[i] != before[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("fine-tune left the clone's params identical")
	}
}

func TestFineTuneRefusesTinyPrefix(t *testing.T) {
	m := testModel(t, 2)
	dyn := testDynamic(t, 1)
	if _, _, err := FineTune(m, dyn, trainer.DefaultConfig()); err == nil {
		t.Fatal("want error on a 1-edge prefix")
	}
}

// FuzzSwapManifest pins the versioned-params envelope's read side: an
// arbitrary CURRENT file must either parse to a version or error —
// never panic, never hand back garbage silently when the checksum
// cannot have matched.
func FuzzSwapManifest(f *testing.F) {
	dir := f.TempDir()
	if err := WriteManifest(nil, dir, 42); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)-1])
	f.Add([]byte("TGCK garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, ManifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, path, err := Latest(nil, d)
		if err != nil {
			return
		}
		// Accepted: the envelope checksum passed, so the bytes must be a
		// manifest we could have written — and the path must be derived
		// from the parsed version.
		if path != ParamsPath(d, v) {
			t.Fatalf("version %d but path %q", v, path)
		}
	})
}

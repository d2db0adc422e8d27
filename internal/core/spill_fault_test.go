package core

import (
	"os"
	"path/filepath"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/tensor"
)

// fillSpill stores keys 1..n with vec[i] = float32(key) so reads can be
// checked bit-exactly.
func fillSpill(sp *SpillStore, n int) {
	vec := make([]float32, sp.dim)
	for k := uint64(1); k <= uint64(n); k++ {
		for i := range vec {
			vec[i] = float32(k)
		}
		sp.Put(k, vec)
	}
}

// checkSpillExact asserts that every Get over keys 1..n either misses
// or returns exactly the value fillSpill wrote — a wrong value is the
// one unacceptable outcome. Returns the number of hits.
func checkSpillExact(t *testing.T, sp *SpillStore, n int) int {
	t.Helper()
	dst := make([]float32, sp.dim)
	hits := 0
	for k := uint64(1); k <= uint64(n); k++ {
		if !sp.Get(k, dst) {
			continue
		}
		hits++
		for i, x := range dst {
			if x != float32(k) {
				t.Fatalf("key %d: corrupt value %g at dim %d (want %d)", k, x, i, k)
			}
		}
	}
	return hits
}

func TestSpillSealCrashDropsEntriesNeverCorrupts(t *testing.T) {
	// A crash mid-seal (disk full, power cut before the atomic rename)
	// must lose the unsealed records cleanly: they disappear from the
	// index, nothing torn is ever indexed, and the store keeps working
	// once the disk recovers.
	fs := faultfs.NewFS()
	dir := t.TempDir()
	sp, err := NewSpillStore(fs, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 256 // 16-byte records: seal roughly every 16 puts

	fs.WriteLimit = 64 // the first seal's write dies partway through
	fillSpill(sp, 40)
	st := sp.Stats()
	if st.SealErrors == 0 {
		t.Fatal("write fault never surfaced as a seal error")
	}
	checkSpillExact(t, sp, 40)

	// Disk recovers: later entries seal and read back fine.
	fs.WriteLimit = -1
	fillSpill(sp, 40) // re-put everything
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if hits := checkSpillExact(t, sp, 40); hits != 40 {
		t.Fatalf("after recovery only %d/40 entries readable", hits)
	}

	// No torn file survived: everything on disk revalidates, and a
	// fresh store over the same dir recovers with zero corruption.
	sp2, err := NewSpillStore(checkpoint.OS{}, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp2.Stats().CorruptSegments; got != 0 {
		t.Fatalf("recovery found %d corrupt segments after a clean shutdown", got)
	}
	if hits := checkSpillExact(t, sp2, 40); hits != 40 {
		t.Fatalf("restart recovered %d/40 entries", hits)
	}
}

func TestSpillBitFlipIsAMissNeverAPromotion(t *testing.T) {
	// At-rest corruption of a sealed record must surface as a cache
	// miss (recompute) — never as corrupt bytes handed to a caller or
	// promoted into the hot tier.
	dir := t.TempDir()
	sp, err := NewSpillStore(checkpoint.OS{}, dir, 2, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 1 // every put seals its own segment
	fillSpill(sp, 8)
	if sp.Stats().Segments != 8 {
		t.Fatalf("expected 8 sealed segments, got %d", sp.Stats().Segments)
	}

	// Flip a bit inside key 3's vector bytes: envelope header (16) +
	// dim header (4) + record key (8) puts bit 0 of the first vec byte
	// at bit (16+4+8)*8.
	if err := faultfs.FlipBit(sp.segPath(2), (16+4+8)*8); err != nil {
		t.Fatal(err)
	}

	dst := make([]float32, 2)
	if sp.Get(3, dst) {
		t.Fatal("bit-flipped record served as a hit")
	}
	if sp.Stats().CorruptRecords == 0 {
		t.Fatal("corruption not counted")
	}
	if sp.Contains(3) {
		t.Fatal("corrupt record still indexed after detection")
	}
	// The other records are untouched.
	if hits := checkSpillExact(t, sp, 8); hits != 7 {
		t.Fatalf("%d/8 hits after one corrupt record, want 7", hits)
	}

	// Through the tiered cache: the flipped key is a miss, so a fresh
	// value gets recomputed/stored; no promotion ever carries bad bytes.
	c := NewCacheWith(CacheConfig{Limit: 4, Dim: 2, Shards: 1, Policy: CacheFIFO, Spill: sp})
	defer c.Close()
	row := tensor.New(1, 2)
	hits := make([]bool, 1)
	if c.LookupInto([]uint64{3}, row, hits) != 0 {
		t.Fatal("tiered cache served the corrupt spilled record")
	}
	if c.Stats().Promotes != 0 {
		t.Fatal("a corrupt record was promoted")
	}
}

func TestSpillRecoveryDeletesCorruptSegments(t *testing.T) {
	dir := t.TempDir()
	sp, err := NewSpillStore(checkpoint.OS{}, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 256 // ~16 records per segment
	fillSpill(sp, 40)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, spillSegPrefix+"*"+spillSegSuffix))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >= 2 sealed segments, got %v (err %v)", segs, err)
	}

	// One segment bit-flipped at rest, one torn (truncated mid-file,
	// modeling a crash that defeated the atomic rename).
	if err := faultfs.FlipBit(segs[0], 200); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.TruncateFile(segs[1], 10); err != nil {
		t.Fatal(err)
	}

	sp2, err := NewSpillStore(checkpoint.OS{}, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp2.Stats().CorruptSegments; got != 2 {
		t.Fatalf("recovery counted %d corrupt segments, want 2", got)
	}
	for _, path := range segs[:2] {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt segment %s not deleted", filepath.Base(path))
		}
	}
	// Whatever recovered reads back exactly; nothing from the corrupt
	// segments is indexed.
	checkSpillExact(t, sp2, 40)
	for _, k := range sp2.Keys() {
		ref := sp2.index[k]
		if sp2.segs[ref.seg] == nil && ref.seg != sp2.openID {
			t.Fatalf("key %d indexed into a missing segment %d", k, ref.seg)
		}
	}
}

func TestTieredCacheUnderWriteFaults(t *testing.T) {
	// End-to-end: a tiered cache whose spill disk fails mid-run keeps
	// serving — hot tier unaffected, spilled entries degrade to misses,
	// every hit bit-exact, and counters stay consistent.
	fs := faultfs.NewFS()
	sp, err := NewSpillStore(fs, t.TempDir(), 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp.segTarget = 128
	c := NewCacheWith(CacheConfig{Limit: 8, Dim: 1, Shards: 2, Policy: CacheTinyLFU, Spill: sp})
	defer c.Close()

	fs.WriteLimit = 300 // a few seals succeed, then the disk dies
	r := tensor.NewRNG(11)
	row := tensor.New(1, 1)
	hits := make([]bool, 1)
	one := tensor.New(1, 1)
	for i := 0; i < 3000; i++ {
		k := uint64(1 + r.Intn(100))
		if c.LookupInto([]uint64{k}, row, hits) == 1 {
			if row.At(0, 0) != float32(k) {
				t.Fatalf("iteration %d: key %d served corrupt value %g", i, k, row.At(0, 0))
			}
			continue
		}
		one.Set(float32(k), 0, 0)
		c.Store([]uint64{k}, one)
	}
	st := c.Stats()
	if st.Spill.SealErrors == 0 {
		t.Fatal("write faults never hit the seal path")
	}
	if st.Lookups != st.Hits+st.Misses {
		t.Fatalf("counters diverged under faults: lookups %d hits %d misses %d",
			st.Lookups, st.Hits, st.Misses)
	}
}

func TestSpillRecoveryScanGoesThroughInjectedFS(t *testing.T) {
	// Recovery's directory scan (MkdirAll, ReadDir, Stat) must run
	// through the injected checkpoint.FS like every seal and read — a
	// store that silently read the real filesystem would make the
	// crash-injection tests above vacuous for the scan itself.
	dir := t.TempDir()
	sp, err := NewSpillStore(faultfs.NewFS(), dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	fillSpill(sp, 4)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	fs := faultfs.NewFS()
	fs.FailReadDir = true
	if _, err := NewSpillStore(fs, dir, 1, 0, false, 0); err == nil {
		t.Fatal("recovery scan bypassed the injected FS (ReadDir fault invisible)")
	}

	fs = faultfs.NewFS()
	fs.FailMkdirAll = true
	if _, err := NewSpillStore(fs, filepath.Join(dir, "sub"), 1, 0, false, 0); err == nil {
		t.Fatal("spill dir creation bypassed the injected FS (MkdirAll fault invisible)")
	}

	// A Stat fault only degrades byte accounting (segment size unknown),
	// never the data: recovery still indexes every record.
	fs = faultfs.NewFS()
	fs.FailStat = true
	sp3, err := NewSpillStore(fs, dir, 1, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits := checkSpillExact(t, sp3, 4); hits != 4 {
		t.Fatalf("recovered %d of 4 records under a Stat fault", hits)
	}
}

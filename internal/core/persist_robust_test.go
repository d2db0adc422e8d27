package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// legacyV1Blob builds a pre-section ("TGCC") cache blob: global-count
// header, as the v1 writer produced it. No reader accepts it any more;
// the refusal tests and the fuzz seeds keep feeding it in.
func legacyV1Blob(dim int, keys []uint64, vals [][]float32) []byte {
	var buf bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	put32(0x54474343) // "TGCC"
	put32(uint32(dim))
	put32(uint32(len(keys)))
	rec := make([]byte, 8+4*dim)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(rec, k)
		for j, f := range vals[i] {
			binary.LittleEndian.PutUint32(rec[8+4*j:], math.Float32bits(f))
		}
		buf.Write(rec)
	}
	return buf.Bytes()
}

// legacyInt8Blob builds a cache blob as the retired int8 row format
// wrote it: v2 sections under their own magic, each payload one float32
// scale and dim int8 codes. No reader accepts it any more.
func legacyInt8Blob(dim int, keys []uint64) []byte {
	var buf bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	put32(0x31514754) // the int8 format's magic
	put32(uint32(dim))
	put32(uint32(len(keys)))
	rec := make([]byte, 8+4+dim)
	for i, k := range keys {
		binary.LittleEndian.PutUint64(rec, k)
		binary.LittleEndian.PutUint32(rec[8:], math.Float32bits(0.5))
		for j := 0; j < dim; j++ {
			rec[12+j] = byte(int8(i + j))
		}
		buf.Write(rec)
	}
	put32(cacheSectionEnd)
	return buf.Bytes()
}

// TestCacheWriteToConcurrentStores exercises the snapshot count race
// the v1 format had: the header count was taken before the per-shard
// iteration, so stores and evictions racing with WriteTo could make
// the header disagree with the entries written, and the snapshot
// failed (or silently truncated) on load. The v2 per-shard sections
// count entries as they are serialized under the shard lock, so every
// snapshot taken mid-churn must load cleanly.
func TestCacheWriteToConcurrentStores(t *testing.T) {
	c := NewCache(256, 4, 8)
	r := tensor.NewRNG(3)
	seedKeys := make([]uint64, 128)
	for i := range seedKeys {
		seedKeys[i] = r.Uint64()
	}
	c.Store(seedKeys, tensor.Rand(r, len(seedKeys), 4))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rg := tensor.NewRNG(seed)
			row := tensor.New(1, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Churn: new keys force evictions, old keys refresh.
				key := rg.Uint64() % 512
				c.Store([]uint64{key}, row)
			}
		}(uint64(g + 10))
	}
	for iter := 0; iter < 50; iter++ {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatalf("iter %d: WriteTo: %v", iter, err)
		}
		fresh := NewCache(256, 4, 8)
		if _, err := fresh.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("iter %d: snapshot taken mid-churn does not load: %v", iter, err)
		}
		if fresh.Len() > fresh.Limit() {
			t.Fatalf("iter %d: restored %d entries over limit %d", iter, fresh.Len(), fresh.Limit())
		}
	}
	close(stop)
	wg.Wait()
}

func TestCacheReadFromAllOrNothing(t *testing.T) {
	good := NewCache(100, 3, 4)
	r := tensor.NewRNG(4)
	keys := make([]uint64, 30)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	good.Store(keys, tensor.Rand(r, 30, 3))
	var buf bytes.Buffer
	if _, err := good.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	orig := tensor.Ones(1, 3)
	for cut := 0; cut < len(blob); cut++ {
		c := NewCache(100, 3, 4)
		c.Store([]uint64{7}, orig)
		_, err := c.ReadFrom(bytes.NewReader(blob[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		// The failed load must not have half-applied: the cache holds
		// exactly its prior single entry.
		if c.Len() != 1 || !c.Contains(7) {
			t.Fatalf("truncation at %d half-applied: len=%d", cut, c.Len())
		}
	}
}

// TestCacheReadFromLegacyV1Blob: the un-sectioned v1 layout and the
// retired int8 layout are refused by their magic, and the refusal leaves
// the cache exactly as it was.
func TestCacheReadFromLegacyV1Blob(t *testing.T) {
	keys := []uint64{11, 22, 33}
	vals := [][]float32{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	for name, blob := range map[string][]byte{
		"v1":   legacyV1Blob(3, keys, vals),
		"int8": legacyInt8Blob(3, keys),
	} {
		c := NewCache(10, 3, 2)
		c.Store([]uint64{7}, tensor.Ones(1, 3))
		if _, err := c.ReadFrom(bytes.NewReader(blob)); err == nil {
			t.Fatalf("legacy %s blob accepted", name)
		}
		if c.Len() != 1 || !c.Contains(7) {
			t.Fatalf("refused %s blob changed the cache: len=%d", name, c.Len())
		}
		for _, k := range keys {
			if c.Contains(k) {
				t.Fatalf("refused %s blob leaked key %d into the cache", name, k)
			}
		}
		got := tensor.New(1, 3)
		c.LookupInto([]uint64{7}, got, make([]bool, 1))
		if !sameBits(got, tensor.Ones(1, 3)) {
			t.Fatalf("refused %s blob changed the resident row: %v", name, got.Data())
		}
	}
}

// TestCacheReadFromHandBuiltTGC2Blob pins the on-disk layout
// independently of WriteTo: magic, dim, one section of key + dim
// little-endian float32s, the end marker. The rows load bit for bit,
// including a NaN payload, a negative zero and a subnormal.
func TestCacheReadFromHandBuiltTGC2Blob(t *testing.T) {
	keys := []uint64{0x0000_0005_0000_03E8, 1<<63 | 9}
	rows := [][]float32{
		{1.5, float32(math.Copysign(0, -1)), math.Float32frombits(0x7FC0_1234)},
		{math.SmallestNonzeroFloat32, -3.25e7, math.MaxFloat32},
	}
	var blob []byte
	blob = binary.LittleEndian.AppendUint32(blob, 0x32434754) // "TGC2"
	blob = binary.LittleEndian.AppendUint32(blob, 3)          // dim
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(keys)))
	for i, k := range keys {
		blob = binary.LittleEndian.AppendUint64(blob, k)
		for _, x := range rows[i] {
			blob = binary.LittleEndian.AppendUint32(blob, math.Float32bits(x))
		}
	}
	blob = binary.LittleEndian.AppendUint32(blob, 0xFFFF_FFFF) // end marker

	c := NewCache(10, 3, 2)
	n, err := c.ReadFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(blob)) || c.Len() != len(keys) {
		t.Fatalf("read %d of %d bytes, %d entries", n, len(blob), c.Len())
	}
	got := tensor.New(len(keys), 3)
	if _, hits := c.Lookup(keys, got); hits != len(keys) {
		t.Fatalf("%d of %d keys resident", hits, len(keys))
	}
	for i, row := range rows {
		for j, x := range row {
			if g := got.At(i, j); math.Float32bits(g) != math.Float32bits(x) {
				t.Fatalf("key %#x elem %d: loaded bits %#x, blob bits %#x", keys[i], j, math.Float32bits(g), math.Float32bits(x))
			}
		}
	}
	// WriteTo reproduces the hand-built bytes: one resident section per
	// occupied shard, so compare after a one-shard round trip.
	one := NewCache(10, 3, 1)
	if _, err := one.ReadFrom(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := one.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), blob) {
		t.Fatalf("one-shard WriteTo differs from the hand-built blob\n got %x\nwant %x", out.Bytes(), blob)
	}
}

func TestSaveCachesAtomicUnderWriteFaults(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	warmLen := eng.CacheLen()
	if warmLen == 0 {
		t.Fatal("no warm state to persist")
	}
	path := filepath.Join(t.TempDir(), "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}
	size, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	checkPrevIntact := func(when string, saveErr error) {
		t.Helper()
		if saveErr == nil {
			t.Fatalf("%s: fault not reported", when)
		}
		eng2 := NewEngine(m, s, OptAll())
		if err := eng2.LoadCaches(path); err != nil {
			t.Fatalf("%s: previous snapshot damaged: %v", when, err)
		}
		if eng2.CacheLen() != warmLen {
			t.Fatalf("%s: previous snapshot lost entries: %d, want %d", when, eng2.CacheLen(), warmLen)
		}
	}

	// Short writes: every boundary of the small header region, then a
	// stride through the body (a full per-byte sweep would re-serialize
	// the cache thousands of times for no extra coverage).
	limits := []int{0, 1, 4, 15, 16, 17, 20}
	for l := 64; l < int(size.Size()); l += 997 {
		limits = append(limits, l)
	}
	limits = append(limits, int(size.Size())-1)
	for _, limit := range limits {
		fsys := faultfs.NewFS()
		fsys.WriteLimit = limit
		checkPrevIntact("short write", eng.SaveCachesFS(fsys, path))
	}
	checkPrevIntact("create", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailCreate: true}, path))
	checkPrevIntact("sync", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailSync: true}, path))
	checkPrevIntact("rename", eng.SaveCachesFS(&faultfs.FS{WriteLimit: -1, FailRename: true}, path))
}

// TestLoadCachesCorruptLeavesEngineCold: at-rest corruption (bit flips
// and truncations anywhere in the file) must surface as a clean error
// with zero entries applied — the degraded-but-consistent cold start
// tgopt-serve relies on.
func TestLoadCachesCorruptLeavesEngineCold(t *testing.T) {
	ds, m, s := engineTestSetup(t, 400)
	eng := NewEngine(m, s, OptAll())
	tgat.StreamInference(ds.Graph, m, 100, eng.EmbedFunc())
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.bin")
	if err := eng.SaveCaches(path); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []int64{0, 13, 35, 64 * 8}
	for bit := int64(1000); bit < int64(len(clean))*8; bit += 7919 {
		corruptions = append(corruptions, bit)
	}
	corruptions = append(corruptions, int64(len(clean))*8-1)
	for _, bit := range corruptions {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.FlipBit(path, bit); err != nil {
			t.Fatal(err)
		}
		cold := NewEngine(m, s, OptAll())
		if err := cold.LoadCaches(path); err == nil {
			t.Fatalf("bit flip at %d went undetected", bit)
		}
		if n := cold.CacheLen(); n != 0 {
			t.Fatalf("bit flip at %d half-applied %d entries", bit, n)
		}
	}
	for _, cut := range []int64{0, 3, 16, 19, int64(len(clean) / 2), int64(len(clean)) - 1} {
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultfs.TruncateFile(path, cut); err != nil {
			t.Fatal(err)
		}
		cold := NewEngine(m, s, OptAll())
		if err := cold.LoadCaches(path); err == nil {
			t.Fatalf("truncation to %d went undetected", cut)
		}
		if n := cold.CacheLen(); n != 0 {
			t.Fatalf("truncation to %d half-applied %d entries", cut, n)
		}
	}
}

// TestLoadCachesLegacyFile: nothing that bypasses the checksummed
// envelope is parsed. A pre-envelope file (raw layer stream), an
// envelope of the previous snapshot version, and a current envelope
// wrapping a v1 blob are each refused with the engine left cold.
func TestLoadCachesLegacyFile(t *testing.T) {
	_, m, s := engineTestSetup(t, 300)
	var stream bytes.Buffer
	put32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		stream.Write(b[:])
	}
	put32(1) // one cached layer
	put32(1) // layer 1
	keys := []uint64{5, 6}
	vals := [][]float32{make([]float32, 16), make([]float32, 16)}
	vals[0][0], vals[1][0] = 1.5, 2.5
	stream.Write(legacyV1Blob(16, keys, vals))
	envelope := func(version uint32, prefix []byte) []byte {
		b, err := checkpoint.Encode(version, func(w io.Writer) error {
			if _, err := w.Write(prefix); err != nil {
				return err
			}
			_, err := w.Write(stream.Bytes())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name    string
		file    []byte
		wantErr error
	}{
		{"pre-envelope raw stream", stream.Bytes(), checkpoint.ErrNotCheckpoint},
		{"envelope version 2", envelope(2, nil), nil},
		{"current envelope, v1 blob", envelope(cacheSnapshotVersion, make([]byte, 16)), nil},
	} {
		path := filepath.Join(t.TempDir(), "legacy.bin")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(m, s, OptAll())
		err := eng.LoadCaches(path)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if n := eng.CacheLen(); n != 0 {
			t.Fatalf("%s: refused snapshot applied %d entries", tc.name, n)
		}
	}
}

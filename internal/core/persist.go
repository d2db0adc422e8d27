package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
)

// Cache persistence: a production deployment restarting its serving
// process would otherwise pay the full warm-up cost again (Figure 7
// shows hit rates take a while to climb).
//
// A cache blob is little-endian, one section a shard:
//
//	magic    uint32 = 0x33434754 ("TGC3")
//	dim      uint32
//	sections repeated { count uint32, count × { key uint64, tag uint64, [dim]float32 } }
//	end      uint32 = 0xFFFFFFFF
//
// Rows are stored exactly as the cache holds them, so a warm start
// serves the same bits the cold run computed.
//
// An engine snapshot is the inputs digest (uint64) and the layer-1
// blob in a checkpoint envelope (internal/checkpoint): checksummed and
// atomically replaced, so a crash mid-save keeps the previous snapshot
// and corruption is caught before any row reaches a live cache. A file
// without the envelope, an older envelope version and an older blob are
// refused with the caches left as they were.
//
// What a load keeps follows §3.2: a layer-1 row is a function of
// ⟨node, t⟩, its most-recent-k window, the feature tables and the
// parameters. The digest covers the last two (and the architecture),
// each row's tag its window, so a load keeps exactly the rows that would
// read the same inputs on the loading engine. Deeper rows read other
// rows, which no load can check, so they are not saved.

const (
	cacheMagic uint32 = 0x33434754 // "TGC3": per-shard sections of (key, tag, row)
	// cacheSectionEnd terminates the section list. Section counts are
	// bounded by the cache limit, far below this sentinel.
	cacheSectionEnd uint32 = 0xFFFFFFFF

	// cacheSnapshotVersion is the engine snapshot's envelope version.
	// Version 5 is the inputs digest and one layer-1 TGC3 blob; every
	// older version is refused.
	cacheSnapshotVersion uint32 = 5

	// digestMul is the odd multiplier of digest's steps.
	digestMul = 0x9E3779B97F4A7C15
)

// digest folds x into the running digest h. Each step is a bijection of
// h, so two sequences of equal length that differ in one word digest
// differently.
func digest(h, x uint64) uint64 { return (h ^ x) * digestMul }

// windowTag digests target i's sampled window in b: the neighbor, edge
// id and time bits of each valid slot (most-recent sampling fills the
// valid slots as a prefix). It is the tag of the layer-1 row computed
// from that window.
func windowTag(b *graph.Batch, i int) uint64 {
	h := uint64(b.K)
	for j := i * b.K; j < (i+1)*b.K && b.Valid[j]; j++ {
		h = digest(h, uint64(uint32(b.Nghs[j]))<<32^uint64(uint32(b.EIdxs[j])))
		h = digest(h, math.Float64bits(b.Times[j]))
	}
	return h ^ h>>32
}

// inputsDigest digests what a layer-1 row reads besides its window: the
// architecture (layers, heads, the three widths, k), every parameter
// tensor and both feature tables, bit for bit. A served model's
// parameters never change after its engines are built, and the feature
// tables are immutable.
func (e *Engine) inputsDigest() uint64 {
	m := e.model
	c := m.Cfg
	var h uint64
	for _, x := range []int{c.Layers, c.Heads, c.NodeDim, c.EdgeDim, c.TimeDim, c.NumNeighbors} {
		h = digest(h, uint64(x))
	}
	for _, t := range append(m.Params(), m.NodeFeat, m.EdgeFeat) {
		h = digest(h, uint64(len(t.Data())))
		for _, x := range t.Data() {
			h = digest(h, uint64(math.Float32bits(x)))
		}
	}
	return h
}

// WriteTo serializes every cached entry as a TGC3 blob. Each shard's
// section is built and counted under the shard lock, then written, so a
// snapshot taken concurrently with stores and evictions is always
// internally consistent (it captures each shard at one instant, and the
// whole cache at slightly staggered instants — the usual warm-cache
// tradeoff, like FIFO age, which survives a restart only approximately).
func (c *Cache) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	var n int64
	write := func(b []byte) error {
		k, err := w.Write(b)
		n += int64(k)
		return err
	}
	if err := write(le.AppendUint32(le.AppendUint32(nil, cacheMagic), uint32(c.dim))); err != nil {
		return n, err
	}
	var sec []byte
	for i := range c.shards {
		s := &c.shards[i]
		sec = le.AppendUint32(sec[:0], 0) // the count, set below
		count := uint32(0)
		s.mu.Lock()
		// Oldest first, so ages are approximately preserved.
		for p := s.head; p >= 0; p = s.slots[p].next {
			sec = le.AppendUint64(le.AppendUint64(sec, s.slots[p].key), s.slots[p].tag)
			for _, x := range s.row(p, c.dim) {
				sec = le.AppendUint32(sec, math.Float32bits(x))
			}
			count++
		}
		s.mu.Unlock()
		if count == 0 {
			continue
		}
		le.PutUint32(sec, count)
		if err := write(sec); err != nil {
			return n, err
		}
	}
	return n, write(le.AppendUint32(nil, cacheSectionEnd))
}

// cacheRecords are a parsed blob's entries in the order written; row i
// is rows[i·dim:(i+1)·dim].
type cacheRecords struct {
	keys, tags []uint64
	rows       []float32
}

// ReadFrom loads entries written by WriteTo into the cache on top of
// any existing contents, evicting per the usual policy if the limit is
// exceeded. The stored dimension must match. The load is
// all-or-nothing: the stream is fully parsed first, so a mid-stream
// error leaves the cache exactly as it was.
func (c *Cache) ReadFrom(r io.Reader) (int64, error) {
	recs, n, err := c.readRecords(r)
	if err != nil {
		return n, err
	}
	// Rows enter through storeOne so eviction behaves exactly like
	// live stores; a loaded row starts unmarked.
	for i, key := range recs.keys {
		c.storeOne(key, recs.tags[i], recs.rows[i*c.dim:(i+1)*c.dim])
	}
	return n, nil
}

// readRecords parses a TGC3 blob of c's dim without touching c.
func (c *Cache) readRecords(r io.Reader) (cacheRecords, int64, error) {
	br := bufio.NewReader(r)
	var recs cacheRecords
	var n int64
	get32 := func() (uint32, error) {
		var buf [4]byte
		k, err := io.ReadFull(br, buf[:])
		n += int64(k)
		return binary.LittleEndian.Uint32(buf[:]), err
	}
	magic, err := get32()
	if err != nil {
		return recs, n, err
	}
	if magic != cacheMagic {
		return recs, n, fmt.Errorf("core: bad cache magic %#x", magic)
	}
	dim, err := get32()
	if err != nil {
		return recs, n, err
	}
	if int(dim) != c.dim {
		return recs, n, fmt.Errorf("core: cached dim %d, cache expects %d", dim, c.dim)
	}
	// Capacities grow by append: a hostile count in a truncated stream
	// must not drive a huge allocation.
	rec := make([]byte, 16+4*c.dim)
	for {
		count, err := get32()
		if err != nil {
			return recs, n, fmt.Errorf("core: cache section header: %w", err)
		}
		if count == cacheSectionEnd {
			return recs, n, nil
		}
		for i := uint32(0); i < count; i++ {
			k, err := io.ReadFull(br, rec)
			n += int64(k)
			if err != nil {
				return recs, n, fmt.Errorf("core: cache entry %d: %w", len(recs.keys), err)
			}
			recs.keys = append(recs.keys, binary.LittleEndian.Uint64(rec))
			recs.tags = append(recs.tags, binary.LittleEndian.Uint64(rec[8:]))
			for j := 16; j < len(rec); j += 4 {
				recs.rows = append(recs.rows, math.Float32frombits(binary.LittleEndian.Uint32(rec[j:])))
			}
		}
	}
}

// SaveCaches persists the engine's layer-1 cache to path as an atomic,
// checksummed snapshot: the write goes to path.tmp and is fsynced and
// renamed into place, so a crash mid-save leaves the previous snapshot
// intact.
func (e *Engine) SaveCaches(path string) error {
	return e.SaveCachesFS(checkpoint.OS{}, path)
}

// SaveCachesFS is SaveCaches over an injectable file system (fault
// tests drive it through internal/faultfs). The inputs digest it writes
// is that of the parameters every saved row was computed under: the
// engine's model never changes.
func (e *Engine) SaveCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to save")
	}
	d := e.inputsDigest()
	return checkpoint.WriteFS(fsys, path, cacheSnapshotVersion, func(w io.Writer) error {
		if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, d)); err != nil {
			return err
		}
		_, err := e.caches[1].WriteTo(w)
		return err
	})
}

// LoadCaches restores the rows SaveCaches saved that would read the
// same inputs on this engine. A snapshot whose inputs digest differs
// (other parameters, feature tables or architecture) is refused whole;
// otherwise each row's window is re-sampled on the engine's graph and
// the row is kept only if its tag still matches. The load is
// all-or-nothing on error: the snapshot is parsed before any row is
// committed. Only enveloped, checksummed snapshots of the current
// version load; a file without the envelope is
// checkpoint.ErrNotCheckpoint.
func (e *Engine) LoadCaches(path string) error {
	return e.LoadCachesFS(checkpoint.OS{}, path)
}

// LoadCachesFS is LoadCaches over an injectable file system — a
// server's warm start reads its snapshots through it, so fault tests
// can drive the restart leg with internal/faultfs. On a
// live graph the caller holds the read side of the graph's write gate
// (graph.Dynamic.Gate) until the load returns, so every kept row's
// window is the graph's when the row is indexed.
func (e *Engine) LoadCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to load into")
	}
	// Loaded rows change what the lower layers answer: top-layer memo
	// rows computed before or while they were absorbed must not outlive
	// the load.
	defer e.memoEpoch.Add(1)
	return checkpoint.ReadFS(fsys, path, func(version uint32, r io.Reader) error {
		if version != cacheSnapshotVersion {
			return fmt.Errorf("core: cache snapshot version %d, engine reads %d", version, cacheSnapshotVersion)
		}
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return err
		}
		if binary.LittleEndian.Uint64(hdr[:]) != e.inputsDigest() {
			return fmt.Errorf("core: cache snapshot was computed from other parameters, features or architecture — re-warm instead of loading it")
		}
		recs, _, err := e.caches[1].readRecords(r)
		if err != nil {
			return fmt.Errorf("core: layer 1: %w", err)
		}
		e.absorbSameWindows(recs)
		return nil
	})
}

// loadChunk is how many staged rows one SampleTo call re-samples.
const loadChunk = 1024

// absorbSameWindows stores the staged rows whose window, re-sampled on
// the engine's graph, still digests to the row's tag, and records them
// in the layer-1 index. A row whose window lost or gained an edge
// would read other inputs, so it is left out.
func (e *Engine) absorbSameWindows(recs cacheRecords) {
	c, ix := e.caches[1], e.IndexFor(1)
	k, m := e.model.Cfg.NumNeighbors, min(loadChunk, len(recs.keys))
	nodes, ts := make([]int32, m), make([]float64, m)
	nghs, eidxs, times, valid := make([]int32, m*k), make([]int32, m*k), make([]float64, m*k), make([]bool, m*k)
	floor := math.Inf(-1)
	if ix != nil {
		floor = e.indexFloor(math.Inf(1))
	}
	for lo := 0; lo < len(recs.keys); lo += m {
		n := min(m, len(recs.keys)-lo)
		for i := range n {
			key := recs.keys[lo+i]
			nodes[i], ts[i] = int32(key>>32), float64(uint32(key))
		}
		b := graph.Batch{K: k, Nghs: nghs[:n*k], EIdxs: eidxs[:n*k], Times: times[:n*k], Valid: valid[:n*k]}
		e.sampler.SampleTo(&b, nodes[:n], ts[:n])
		// A kept row may lie past the graph's clock: appends must scan for it.
		e.noteEmbedTimes(ts[:n])
		for i := range n {
			j := lo + i
			if windowTag(&b, i) != recs.tags[j] {
				continue
			}
			c.storeOne(recs.keys[j], recs.tags[j], recs.rows[j*c.dim:(j+1)*c.dim])
			if ix != nil {
				ix.Record(nodes[i], recs.keys[j], ts[i], floor)
			}
		}
	}
}

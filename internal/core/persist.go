package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"tgopt/internal/checkpoint"
)

// Cache persistence: a production deployment restarting its serving
// process would otherwise pay the full warm-up cost again (Figure 7
// shows hit rates take a while to climb).
//
// A cache blob is little-endian. The layout snapshots one shard at a
// time, each section's count taken under that shard's lock while its
// entries are serialized, so concurrent stores and evictions can never
// make a header disagree with the entries actually written:
//
//	magic    uint32 = 0x32434754 ("TGC2")
//	dim      uint32
//	sections repeated { count uint32, count × { key uint64, [dim]float32 } }
//	end      uint32 = 0xFFFFFFFF
//
// Rows are stored exactly as the cache holds them, so a warm start
// serves the same bits the cold run computed.
//
// Engine snapshots wrap the per-layer blobs in a checkpoint envelope
// (internal/checkpoint): CRC32-checksummed and atomically replaced, so
// a crash mid-save preserves the previous snapshot and corruption is
// detected before any entry reaches a live cache. Nothing that bypasses
// the checksum is parsed: a file without the envelope, an envelope of
// an older snapshot version and a pre-section ("TGCC") blob are all
// refused with an error and the caches left as they were.
//
// The envelope payload says what its entries are valid for: the model
// version (uint64) and the live graph's watermark W (float64, NaN
// without a live graph), then the layer count and (layer, blob) pairs.

const (
	cacheMagicV2 uint32 = 0x32434754 // "TGC2": per-shard sections
	// cacheSectionEnd terminates the v2 section list. Section counts
	// are bounded by the cache limit, far below this sentinel.
	cacheSectionEnd uint32 = 0xFFFFFFFF

	// cacheSnapshotVersion is the engine snapshot's envelope version.
	// Version 3 prefixed the layer stream with the model version the
	// entries were computed under; version 4 adds the graph watermark
	// they are valid from.
	cacheSnapshotVersion uint32 = 4
)

// WriteTo serializes every cached entry as a v2 blob. Each shard's
// entries are staged and counted under the shard lock, then streamed
// out, so a snapshot taken concurrently with stores and evictions is
// always internally consistent (it captures each shard at one instant,
// and the whole cache at slightly staggered instants — the usual
// warm-cache tradeoff, like FIFO age, which survives a restart only
// approximately).
func (c *Cache) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	put32 := func(v uint32) error {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		k, err := bw.Write(buf[:])
		n += int64(k)
		return err
	}
	if err := put32(cacheMagicV2); err != nil {
		return n, err
	}
	if err := put32(uint32(c.dim)); err != nil {
		return n, err
	}
	var scratch bytes.Buffer
	rec := make([]byte, 8+4*c.dim)
	for i := range c.shards {
		s := &c.shards[i]
		scratch.Reset()
		count := uint32(0)
		s.mu.Lock()
		// Write oldest first so ages are approximately preserved.
		for p := s.head; p >= 0; p = s.slots[p].next {
			binary.LittleEndian.PutUint64(rec, s.slots[p].key)
			for j, x := range s.row(p, c.dim) {
				binary.LittleEndian.PutUint32(rec[8+4*j:], math.Float32bits(x))
			}
			scratch.Write(rec)
			count++
		}
		s.mu.Unlock()
		if count == 0 {
			continue
		}
		if err := put32(count); err != nil {
			return n, err
		}
		k, err := bw.Write(scratch.Bytes())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	if err := put32(cacheSectionEnd); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// ReadFrom loads entries written by WriteTo into the cache on top of
// any existing contents, evicting per the usual FIFO policy if the
// limit is exceeded. The stored dimension must match. The load is
// all-or-nothing: the stream is fully parsed into a staging area first,
// so a mid-stream error leaves the cache exactly as it was.
func (c *Cache) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	var n int64
	get32 := func() (uint32, error) {
		var buf [4]byte
		k, err := io.ReadFull(br, buf[:])
		n += int64(k)
		return binary.LittleEndian.Uint32(buf[:]), err
	}
	magic, err := get32()
	if err != nil {
		return n, err
	}
	if magic != cacheMagicV2 {
		return n, fmt.Errorf("core: bad cache magic %#x", magic)
	}
	dim, err := get32()
	if err != nil {
		return n, err
	}
	if int(dim) != c.dim {
		return n, fmt.Errorf("core: cached dim %d, cache expects %d", dim, c.dim)
	}

	// Stage every entry before touching the live shards. Capacities
	// grow by append: a hostile count in a truncated stream must not
	// drive a huge allocation.
	var keys []uint64
	var rows []float32
	rec := make([]byte, 8+4*c.dim)
	for {
		count, err := get32()
		if err != nil {
			return n, fmt.Errorf("core: cache section header: %w", err)
		}
		if count == cacheSectionEnd {
			break
		}
		for i := uint32(0); i < count; i++ {
			k, err := io.ReadFull(br, rec)
			n += int64(k)
			if err != nil {
				return n, fmt.Errorf("core: cache entry %d: %w", len(keys), err)
			}
			keys = append(keys, binary.LittleEndian.Uint64(rec))
			for j := 8; j < len(rec); j += 4 {
				rows = append(rows, math.Float32frombits(binary.LittleEndian.Uint32(rec[j:])))
			}
		}
	}

	// Commit: the stream parsed cleanly; only now do entries enter the
	// live cache. Rows re-enter through storeOne so TinyLFU admission
	// behaves exactly like live stores.
	for i, key := range keys {
		c.storeOne(key, rows[i*c.dim:(i+1)*c.dim])
	}
	return n, nil
}

// absorb merges every entry of other into c, oldest first, under c's
// usual limit semantics. other must have the same dim and is expected
// to be a private staging cache (it is read without locking).
func (c *Cache) absorb(other *Cache) {
	for i := range other.shards {
		s := &other.shards[i]
		for p := s.head; p >= 0; p = s.slots[p].next {
			c.storeOne(s.slots[p].key, s.row(p, c.dim))
		}
	}
}

// SaveCaches persists the engine's per-layer caches to path as an
// atomic, checksummed snapshot: the write goes to path.tmp and is
// fsynced and renamed into place, so a crash mid-save leaves the
// previous snapshot intact.
func (e *Engine) SaveCaches(path string) error {
	return e.SaveCachesFS(checkpoint.OS{}, path)
}

// SaveCachesFS is SaveCaches over an injectable file system (fault
// tests drive it through internal/faultfs).
//
// The graph watermark W it stamps is read once, before any entry is
// serialized. W never moves back, so every edge the graph takes
// afterwards, and one taken but not yet invalidated for, has time ≥ W:
// replaying every edge at or past W on load covers each edge the saved
// entries may predate (some redundantly, which is safe).
func (e *Engine) SaveCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to save")
	}
	// The save runs under the swap barrier's read side so the model
	// version it stamps is the version every serialized entry was
	// computed under — a swap cannot land between the stamp and the
	// blobs.
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	wm := math.NaN()
	if e.dyn != nil {
		wm = e.dyn.Watermark()
	}
	return checkpoint.WriteFS(fsys, path, cacheSnapshotVersion, func(w io.Writer) error {
		// Payload: model version, watermark, number of cached layers,
		// then (layer, blob) pairs.
		var stamp [16]byte
		binary.LittleEndian.PutUint64(stamp[:8], e.model.Version())
		binary.LittleEndian.PutUint64(stamp[8:], math.Float64bits(wm))
		if _, err := w.Write(stamp[:]); err != nil {
			return err
		}
		var live []int
		for l, c := range e.caches {
			if c != nil {
				live = append(live, l)
			}
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(live)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		for _, l := range live {
			binary.LittleEndian.PutUint32(hdr[:], uint32(l))
			if _, err := w.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := e.caches[l].WriteTo(w); err != nil {
				return err
			}
		}
		return nil
	})
}

// LoadCaches restores caches saved by SaveCaches. The engine's
// architecture (cached layers and embedding width) must match. The
// load is all-or-nothing across every layer: entries are parsed into
// staging caches and committed only after the whole snapshot validates,
// so a corrupt file leaves the engine's caches untouched. Only
// enveloped, checksummed snapshots of the current version load; a file
// without the envelope is checkpoint.ErrNotCheckpoint.
func (e *Engine) LoadCaches(path string) error {
	return e.LoadCachesFS(checkpoint.OS{}, path)
}

// LoadCachesFS is LoadCaches over an injectable file system — the
// shard supervisor restores a crashed shard's snapshot through it so
// fault tests can drive the restart leg with internal/faultfs.
//
// A live engine refuses a NaN W or a W past MaxTime (its graph is
// behind the saver's and may lack edges the entries read), and after
// absorbing the entries runs the late-edge rule for every edge at or
// past W, which the entries may predate. The caller keeps graph writers
// out until the load returns. A static-sampler engine ignores W.
func (e *Engine) LoadCachesFS(fsys checkpoint.FS, path string) error {
	if e.caches == nil {
		return fmt.Errorf("core: engine has no caches to load into")
	}
	// Under the swap barrier's read side: the version the snapshot is
	// validated against cannot change while entries are committed.
	e.swapGate.RLock()
	defer e.swapGate.RUnlock()
	// Loaded rows change what the lower layers answer: top-layer memo
	// rows computed before or while they were absorbed must not outlive
	// the load.
	defer e.memoEpoch.Add(1)
	var w float64
	err := checkpoint.ReadFS(fsys, path, func(version uint32, r io.Reader) error {
		if version != cacheSnapshotVersion {
			return fmt.Errorf("core: cache snapshot version %d, engine reads %d", version, cacheSnapshotVersion)
		}
		// The model-version and watermark stamps precede the layer
		// stream. A snapshot taken under other parameters is refused —
		// its memos would be bitwise-wrong under the current model.
		var stamp [16]byte
		if _, err := io.ReadFull(r, stamp[:]); err != nil {
			return err
		}
		if v := binary.LittleEndian.Uint64(stamp[:8]); v != e.model.Version() {
			return fmt.Errorf("core: cache snapshot is model version %d, engine serves %d — re-warm instead of loading across versions", v, e.model.Version())
		}
		w = math.Float64frombits(binary.LittleEndian.Uint64(stamp[8:]))
		if e.dyn != nil && (math.IsNaN(w) || w > e.dyn.MaxTime()) {
			return fmt.Errorf("core: cache snapshot watermark %v outside the graph's clock %v", w, e.dyn.MaxTime())
		}
		return e.loadCacheStream(r)
	})
	if err != nil || e.dyn == nil {
		return err
	}
	// invalidateNewer rather than InvalidateAppend: the append fast path
	// skips the scan when no future-time memo was embedded, and the
	// restored entries are exactly such memos. The graph keeps its edges
	// in time order, so each scan retires only records below its own
	// edge, which no later replay can reach (indexFloor).
	for _, edge := range e.dyn.EdgesFrom(w) {
		e.invalidateNewer(edge.Src, edge.Dst, edge.Time)
	}
	return nil
}

// loadCacheStream parses a layer stream into staging caches and
// commits them only if every layer parses cleanly.
func (e *Engine) loadCacheStream(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	layers := binary.LittleEndian.Uint32(hdr[:])
	if layers > uint32(len(e.caches)) {
		return fmt.Errorf("core: snapshot has %d cached layers, engine has %d", layers, len(e.caches))
	}
	staged := make(map[int]*Cache, layers)
	for i := uint32(0); i < layers; i++ {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return err
		}
		l := int(binary.LittleEndian.Uint32(hdr[:]))
		if l < 0 || l >= len(e.caches) || e.caches[l] == nil {
			return fmt.Errorf("core: snapshot has cache for layer %d, engine does not", l)
		}
		if _, ok := staged[l]; ok {
			return fmt.Errorf("core: snapshot lists layer %d twice", l)
		}
		c := e.caches[l]
		sc := NewCache(c.limit, c.dim, len(c.shards)) // the same geometry, empty
		if _, err := sc.ReadFrom(br); err != nil {
			return fmt.Errorf("core: layer %d: %w", l, err)
		}
		staged[l] = sc
	}
	// Commit: every layer validated; merge into the live caches. Deep
	// layers are the exception under transitive invalidation: a key
	// decodes its target and time but not the support set the entry
	// aggregated, so a warm-started deep entry could never be
	// selectively invalidated — those layers conservatively re-warm
	// instead of loading (DESIGN.md §15). Layer 1 keeps its warm
	// start: its index rebuilds from the keys alone.
	for l, sc := range staged {
		if l >= 2 && e.layerSupports != nil {
			continue
		}
		e.caches[l].absorb(sc)
	}
	e.rebuildTargetIndex()
	return nil
}

// rebuildTargetIndex re-derives the layer-1 per-node key index from
// the layer-1 cache after a snapshot load, so late-edge invalidation
// also covers warm-started entries. Keys decode exactly: the engine
// stores only times inside Key's domain. Every key is recorded, below
// the watermark too: the edges a restore replays may predate it
// (Engine.indexFloor), and the next scans retire the rest.
func (e *Engine) rebuildTargetIndex() {
	ix := e.TargetsFor(1)
	if ix == nil {
		return
	}
	c := e.CacheFor(1)
	if c == nil {
		return
	}
	for _, key := range c.Keys() {
		ix.Record(int32(key>>32), key, float64(uint32(key)), math.Inf(-1))
	}
}

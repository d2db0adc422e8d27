package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tgopt/internal/checkpoint"
)

// spillSegVersion is the payload format version of a spill segment
// inside the checkpoint envelope. Version 2 added the model-version
// word to the segment header; version-1 segments (no model stamp) are
// treated like any other unreadable segment and dropped at recovery.
const spillSegVersion = 2

// spillHdrSize is the segment payload header: the dim word (quant flag
// in bit 31) followed by the model version the records were computed
// under.
const spillHdrSize = 4 + 8

// spillSegPrefix/Suffix name segment files: seg-<id>.tgs.
const (
	spillSegPrefix = "seg-"
	spillSegSuffix = ".tgs"
)

// defaultSegTarget is the open-buffer payload size that triggers a
// seal (~1 MiB keeps segment count moderate while bounding the memory
// held by the unsealed tail).
const defaultSegTarget = 1 << 20

// spillRef locates one record: the segment holding it and the record's
// payload-relative byte offset (the on-disk offset adds the envelope
// header).
type spillRef struct {
	seg uint32
	off int64
}

// spillSeg is one sealed on-disk segment.
type spillSeg struct {
	id    uint32
	path  string
	bytes int64    // full file size including envelope
	keys  []uint64 // record keys in offset order (including superseded ones)
	live  int      // records still reachable through the index
}

// SpillStats is a point-in-time snapshot of the cold tier's counters.
type SpillStats struct {
	Entries         int   `json:"entries"`
	Segments        int   `json:"segments"`
	Bytes           int64 `json:"bytes"`
	Hits            int64 `json:"hits"`
	Puts            int64 `json:"puts"`
	SealErrors      int64 `json:"seal_errors"`
	CorruptRecords  int64 `json:"corrupt_records"`
	CorruptSegments int64 `json:"corrupt_segments"`
	DroppedSegments int64 `json:"dropped_segments"`
	Compactions     int64 `json:"compactions"`
}

// SpillStore is the cold tier of the two-tier memo cache: an
// append-only log of evicted ⟨key, embedding⟩ records in segment
// files under dir. Records accumulate in an in-memory open segment
// and are sealed to disk through checkpoint.WriteFS, so every sealed
// file carries the versioned envelope and whole-file CRC and lands
// atomically (tmp + fsync + rename + dir fsync). Each record also
// carries its own CRC32 so random-access reads of a sealed segment
// validate without re-reading the file — a bit-flipped record surfaces
// as a miss, never as a corrupt promotion.
//
// Layout of a segment payload:
//
//	dim      uint32 (bit 31 set when records are int8-quantized)
//	modelVer uint64 (model version the records were computed under)
//	records × (key uint64, payload [entryCodec], crc32 uint32)
//
// where each record's crc32 is IEEE over its key+payload bytes and the
// payload is the shared entry codec's format — float32 vectors, or
// scale-prefixed int8 codes in quant mode (~4× smaller records). A
// segment whose header flag, dim, or model version disagrees with the
// store is treated exactly like a corrupt one: deleted and counted, so
// a precision change across restarts — or a parameter hot-swap — costs
// the cold entries, never a wrong embedding.
//
// Overwritten and removed records stay in their segment as dead bytes
// until compaction folds the survivors back into the open buffer and
// deletes the file. When the byte budget is exceeded the oldest sealed
// segments are dropped whole — the cold tier is a cache, not a store
// of record, so losing its coldest entries is always safe.
type SpillStore struct {
	fsys      checkpoint.FS
	dir       string
	dim       int
	codec     entryCodec
	maxBytes  int64
	segTarget int
	modelVer  uint64 // stamped into segment headers; guarded by mu

	mu          sync.Mutex
	index       map[uint64]spillRef
	segs        map[uint32]*spillSeg
	order       []uint32 // sealed segment ids, oldest first
	open        []byte   // open segment payload (starts with the dim header)
	openKeys    []uint64
	openID      uint32
	nextID      uint32
	sealedBytes int64

	hits        atomic.Int64
	puts        atomic.Int64
	sealErrs    atomic.Int64
	corruptRecs atomic.Int64
	corruptSegs atomic.Int64
	droppedSegs atomic.Int64
	compactions atomic.Int64
}

// spillQuantFlag marks a segment's dim header word as holding
// int8-quantized records (dims are far below 2³¹, so the bit is free).
const spillQuantFlag = 1 << 31

// NewSpillStore opens (or creates) a cold tier under dir, recovering
// every valid sealed segment already present. Segments that fail
// envelope validation — torn by a crash mid-seal that somehow bypassed
// the atomic rename, or bit-flipped at rest — are deleted and counted,
// never indexed. maxBytes <= 0 means unbounded. quant stores
// scale-prefixed int8 payloads instead of float32 vectors; segments of
// the other precision, and segments written under a different model
// version — an earlier process generation, or the tier's own pre-swap
// output — are dropped during recovery exactly like corrupt ones, since
// spilled embeddings are only valid for the precision and parameters
// that computed them.
func NewSpillStore(fsys checkpoint.FS, dir string, dim int, maxBytes int64, quant bool, modelVer uint64) (*SpillStore, error) {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	if dim < 1 {
		return nil, fmt.Errorf("core: spill dim must be >= 1, got %d", dim)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating spill dir: %w", err)
	}
	sp := &SpillStore{
		fsys:      fsys,
		dir:       dir,
		dim:       dim,
		codec:     entryCodec{dim: dim, quant: quant},
		maxBytes:  maxBytes,
		segTarget: defaultSegTarget,
		modelVer:  modelVer,
		index:     make(map[uint64]spillRef),
		segs:      make(map[uint32]*spillSeg),
	}
	if err := sp.recover(); err != nil {
		return nil, err
	}
	sp.openID = sp.nextID
	sp.nextID++
	sp.resetOpenLocked()
	return sp, nil
}

// resetOpenLocked starts a fresh open buffer holding only the segment
// header (dim word + model version).
func (sp *SpillStore) resetOpenLocked() {
	sp.open = sp.open[:0]
	var hdr [spillHdrSize]byte
	h := uint32(sp.dim)
	if sp.codec.quant {
		h |= spillQuantFlag
	}
	binary.LittleEndian.PutUint32(hdr[:4], h)
	binary.LittleEndian.PutUint64(hdr[4:], sp.modelVer)
	sp.open = append(sp.open, hdr[:]...)
	sp.openKeys = sp.openKeys[:0]
}

// recover scans dir for sealed segments and rebuilds the index. Later
// segments win duplicate keys (they were written later).
func (sp *SpillStore) recover() error {
	entries, err := sp.fsys.ReadDir(sp.dir)
	if err != nil {
		return fmt.Errorf("core: scanning spill dir: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, spillSegPrefix) || !strings.HasSuffix(name, spillSegSuffix) {
			continue
		}
		idStr := strings.TrimSuffix(strings.TrimPrefix(name, spillSegPrefix), spillSegSuffix)
		id, perr := strconv.ParseUint(idStr, 10, 32)
		if perr != nil {
			continue
		}
		ids = append(ids, uint32(id))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		path := sp.segPath(id)
		seg := &spillSeg{id: id, path: path}
		err := checkpoint.ReadFS(sp.fsys, path, func(version uint32, r io.Reader) error {
			return sp.decodeSegment(seg, version, r)
		})
		if err != nil {
			// Torn, bit-flipped, or wrong-format: delete and count. No
			// record of it reaches the index, so it can never be
			// promoted.
			sp.corruptSegs.Add(1)
			sp.fsys.Remove(path)
			continue
		}
		if fi, serr := sp.fsys.Stat(path); serr == nil {
			seg.bytes = fi.Size()
		}
		sp.segs[id] = seg
		sp.order = append(sp.order, id)
		sp.sealedBytes += seg.bytes
		if id >= sp.nextID {
			sp.nextID = id + 1
		}
	}
	// Live counts: a record is live iff the index still points at it.
	for _, id := range sp.order {
		seg := sp.segs[id]
		rec := sp.codec.recSize()
		for i, key := range seg.keys {
			if sp.index[key] == (spillRef{seg: id, off: spillHdrSize + int64(i)*rec}) {
				seg.live++
			}
		}
	}
	return nil
}

// decodeSegment parses a validated segment payload, indexing its
// records. Individual records with bad CRCs are skipped and counted
// (possible only if the envelope was rewritten around them, since the
// whole-file CRC already passed).
func (sp *SpillStore) decodeSegment(seg *spillSeg, version uint32, r io.Reader) error {
	if version != spillSegVersion {
		return fmt.Errorf("unsupported spill segment version %d", version)
	}
	var hdr [spillHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	h := binary.LittleEndian.Uint32(hdr[:4])
	if quant := h&spillQuantFlag != 0; quant != sp.codec.quant {
		return fmt.Errorf("spill segment quant=%v, store quant=%v", quant, sp.codec.quant)
	}
	if d := h &^ spillQuantFlag; int(d) != sp.dim {
		return fmt.Errorf("spill segment dim %d, cache dim %d", d, sp.dim)
	}
	if v := binary.LittleEndian.Uint64(hdr[4:]); v != sp.modelVer {
		return fmt.Errorf("spill segment model version %d, store version %d", v, sp.modelVer)
	}
	rec := sp.codec.recSize()
	buf := make([]byte, rec)
	off := int64(spillHdrSize)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		key := binary.LittleEndian.Uint64(buf)
		want := binary.LittleEndian.Uint32(buf[rec-4:])
		if crc32.ChecksumIEEE(buf[:rec-4]) != want {
			sp.corruptRecs.Add(1)
		} else {
			sp.index[key] = spillRef{seg: seg.id, off: off}
		}
		seg.keys = append(seg.keys, key)
		off += rec
	}
}

func (sp *SpillStore) segPath(id uint32) string {
	return filepath.Join(sp.dir, spillSegPrefix+strconv.FormatUint(uint64(id), 10)+spillSegSuffix)
}

// Put spills one entry. vec is copied into the open buffer; sealing
// happens inline once the buffer reaches the segment target.
func (sp *SpillStore) Put(key uint64, vec []float32) {
	if len(vec) != sp.dim {
		panic("core: spill Put dim mismatch")
	}
	sp.puts.Add(1)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.putLocked(key, vec)
	if len(sp.open) >= sp.segTarget {
		sp.sealLocked()
		sp.enforceBudgetLocked()
	}
}

// putLocked appends one record to the open buffer and points the index
// at it, superseding any older copy of the key. The vector is encoded
// through the entry codec directly into the buffer.
func (sp *SpillStore) putLocked(key uint64, vec []float32) {
	off := sp.beginRecordLocked(key)
	sp.open = sp.codec.appendTo(sp.open, vec)
	sp.finishRecordLocked(key, off)
}

// putPayload spills an already-encoded entry payload — the hot tier's
// eviction path, which hands over its stored bytes without a re-encode —
// unless fence no longer reads gen under the store lock: an invalidation
// overlapped the entry's move between the tiers (Cache.gen).
func (sp *SpillStore) putPayload(key uint64, payload []byte, fence *atomic.Uint64, gen uint64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if fence.Load() != gen {
		return
	}
	sp.puts.Add(1)
	sp.putPayloadLocked(key, payload)
	if len(sp.open) >= sp.segTarget {
		sp.sealLocked()
		sp.enforceBudgetLocked()
	}
}

// putPayloadLocked is putLocked for pre-encoded payload bytes.
func (sp *SpillStore) putPayloadLocked(key uint64, payload []byte) {
	off := sp.beginRecordLocked(key)
	sp.open = append(sp.open, payload...)
	sp.finishRecordLocked(key, off)
}

// beginRecordLocked drops any superseded copy of key and appends the
// record's key prefix, returning the record's start offset.
func (sp *SpillStore) beginRecordLocked(key uint64) int64 {
	if old, ok := sp.index[key]; ok {
		sp.dropRefLocked(key, old)
	}
	off := int64(len(sp.open))
	var scratch [8]byte
	binary.LittleEndian.PutUint64(scratch[:], key)
	sp.open = append(sp.open, scratch[:]...)
	return off
}

// finishRecordLocked appends the record CRC and indexes the record.
func (sp *SpillStore) finishRecordLocked(key uint64, off int64) {
	var scratch [4]byte
	binary.LittleEndian.PutUint32(scratch[:], crc32.ChecksumIEEE(sp.open[off:]))
	sp.open = append(sp.open, scratch[:]...)
	sp.index[key] = spillRef{seg: sp.openID, off: off}
	sp.openKeys = append(sp.openKeys, key)
}

// dropRefLocked forgets one superseded or removed record, updating the
// owning segment's live count and compacting it when dead records
// dominate.
func (sp *SpillStore) dropRefLocked(key uint64, ref spillRef) {
	delete(sp.index, key)
	if ref.seg == sp.openID {
		return // dead bytes in the open buffer fold away at the next seal
	}
	if seg, ok := sp.segs[ref.seg]; ok {
		seg.live--
		if seg.live*2 < len(seg.keys) {
			sp.compactLocked(seg)
		}
	}
}

// sealLocked writes the open buffer to disk as a new segment. On write
// failure the buffered records are dropped from the index — the cold
// tier loses entries rather than ever indexing a file that is not
// fully durable.
func (sp *SpillStore) sealLocked() {
	if len(sp.openKeys) == 0 {
		sp.resetOpenLocked()
		return
	}
	id := sp.openID
	path := sp.segPath(id)
	payload := sp.open
	err := checkpoint.WriteFS(sp.fsys, path, spillSegVersion, func(w io.Writer) error {
		_, werr := w.Write(payload)
		return werr
	})
	rec := sp.codec.recSize()
	if err != nil {
		sp.sealErrs.Add(1)
		for i, key := range sp.openKeys {
			if sp.index[key] == (spillRef{seg: id, off: spillHdrSize + int64(i)*rec}) {
				delete(sp.index, key)
			}
		}
	} else {
		seg := &spillSeg{
			id:    id,
			path:  path,
			bytes: int64(len(payload)) + 20, // envelope header + trailer
			keys:  append([]uint64(nil), sp.openKeys...),
		}
		for i, key := range sp.openKeys {
			if sp.index[key] == (spillRef{seg: id, off: spillHdrSize + int64(i)*rec}) {
				seg.live++
			}
		}
		sp.segs[id] = seg
		sp.order = append(sp.order, id)
		sp.sealedBytes += seg.bytes
	}
	sp.openID = sp.nextID
	sp.nextID++
	sp.resetOpenLocked()
}

// enforceBudgetLocked drops whole sealed segments oldest-first until
// the on-disk footprint fits the byte budget.
func (sp *SpillStore) enforceBudgetLocked() {
	if sp.maxBytes <= 0 {
		return
	}
	for sp.sealedBytes > sp.maxBytes && len(sp.order) > 0 {
		sp.removeSegLocked(sp.segs[sp.order[0]])
		sp.droppedSegs.Add(1)
	}
}

// removeSegLocked unindexes and deletes one sealed segment.
func (sp *SpillStore) removeSegLocked(seg *spillSeg) {
	rec := sp.codec.recSize()
	for i, key := range seg.keys {
		if sp.index[key] == (spillRef{seg: seg.id, off: spillHdrSize + int64(i)*rec}) {
			delete(sp.index, key)
		}
	}
	delete(sp.segs, seg.id)
	for i, id := range sp.order {
		if id == seg.id {
			sp.order = append(sp.order[:i], sp.order[i+1:]...)
			break
		}
	}
	sp.sealedBytes -= seg.bytes
	sp.fsys.Remove(seg.path)
}

// compactLocked folds a mostly-dead segment's surviving records back
// into the open buffer and deletes the file.
func (sp *SpillStore) compactLocked(seg *spillSeg) {
	sp.compactions.Add(1)
	rec := sp.codec.recSize()
	// Collect survivors before removeSegLocked unindexes them.
	type rescued struct {
		key uint64
		off int64
	}
	var keep []rescued
	for i, key := range seg.keys {
		ref := spillRef{seg: seg.id, off: spillHdrSize + int64(i)*rec}
		if sp.index[key] == ref {
			keep = append(keep, rescued{key: key, off: ref.off})
		}
	}
	var payload []byte
	if len(keep) > 0 {
		err := checkpoint.ReadFS(sp.fsys, seg.path, func(version uint32, r io.Reader) error {
			var rerr error
			payload, rerr = io.ReadAll(r)
			return rerr
		})
		if err != nil {
			sp.corruptSegs.Add(1)
			payload = nil
		}
	}
	sp.removeSegLocked(seg)
	for _, k := range keep {
		if payload == nil || k.off+rec > int64(len(payload)) {
			continue
		}
		buf := payload[k.off : k.off+rec]
		if crc32.ChecksumIEEE(buf[:rec-4]) != binary.LittleEndian.Uint32(buf[rec-4:]) {
			sp.corruptRecs.Add(1)
			continue
		}
		sp.putPayloadLocked(k.key, buf[8:rec-4])
	}
}

// Get copies the spilled embedding for key into dst and reports
// whether it was found intact. Disk reads happen outside the store
// lock; the index is re-checked afterwards so a record superseded,
// compacted, or removed mid-read is returned as a miss, never as stale
// data. A record whose CRC fails is unindexed and counted — corrupt
// bytes never reach dst.
func (sp *SpillStore) Get(key uint64, dst []float32) bool {
	if len(dst) != sp.dim {
		panic("core: spill Get dim mismatch")
	}
	sp.mu.Lock()
	ref, ok := sp.index[key]
	if !ok {
		sp.mu.Unlock()
		return false
	}
	rec := sp.codec.recSize()
	if ref.seg == sp.openID {
		buf := sp.open[ref.off : ref.off+rec]
		sp.codec.decode(buf[8:rec-4], dst)
		sp.mu.Unlock()
		sp.hits.Add(1)
		return true
	}
	seg := sp.segs[ref.seg]
	path := seg.path
	sp.mu.Unlock()

	buf := make([]byte, rec)
	if !sp.readRecord(path, ref.off, buf) {
		sp.dropCorruptRef(key, ref)
		return false
	}
	if binary.LittleEndian.Uint64(buf) != key ||
		crc32.ChecksumIEEE(buf[:rec-4]) != binary.LittleEndian.Uint32(buf[rec-4:]) {
		sp.dropCorruptRef(key, ref)
		return false
	}

	sp.mu.Lock()
	still := sp.index[key] == ref
	sp.mu.Unlock()
	if !still {
		return false
	}
	sp.codec.decode(buf[8:rec-4], dst)
	sp.hits.Add(1)
	return true
}

// dropCorruptRef unindexes a record that failed validation, if the
// index still points at it.
func (sp *SpillStore) dropCorruptRef(key uint64, ref spillRef) {
	sp.corruptRecs.Add(1)
	sp.mu.Lock()
	if sp.index[key] == ref {
		sp.dropRefLocked(key, ref)
	}
	sp.mu.Unlock()
}

// readRecord reads one record at the given payload offset of a sealed
// segment (envelope header precedes the payload on disk).
func (sp *SpillStore) readRecord(path string, off int64, buf []byte) bool {
	f, err := sp.fsys.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	const envelopeHeader = 16
	if ra, ok := f.(io.ReaderAt); ok {
		_, err = ra.ReadAt(buf, envelopeHeader+off)
		return err == nil
	}
	if _, err := io.CopyN(io.Discard, f, envelopeHeader+off); err != nil {
		return false
	}
	_, err = io.ReadFull(f, buf)
	return err == nil
}

// Remove forgets key if spilled; it reports whether an entry was
// dropped.
func (sp *SpillStore) Remove(key uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	ref, ok := sp.index[key]
	if !ok {
		return false
	}
	sp.dropRefLocked(key, ref)
	return true
}

// Contains reports whether key is indexed in the cold tier.
func (sp *SpillStore) Contains(key uint64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	_, ok := sp.index[key]
	return ok
}

// Keys returns every indexed key (no particular order).
func (sp *SpillStore) Keys() []uint64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]uint64, 0, len(sp.index))
	for key := range sp.index {
		out = append(out, key)
	}
	return out
}

// Len returns the number of indexed entries.
func (sp *SpillStore) Len() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.index)
}

// Clear drops every entry and deletes every segment file.
func (sp *SpillStore) Clear() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for _, id := range append([]uint32(nil), sp.order...) {
		sp.removeSegLocked(sp.segs[id])
	}
	sp.index = make(map[uint64]spillRef)
	sp.openID = sp.nextID
	sp.nextID++
	sp.resetOpenLocked()
}

// SetModelVersion stamps subsequently written segments with v. The
// open buffer — whose header already carries the old version — is
// sealed first so no record is ever filed under a version it was not
// computed for. Callers invalidating on a parameter swap should Clear
// first and then SetModelVersion, which leaves the tier empty and
// correctly stamped.
func (sp *SpillStore) SetModelVersion(v uint64) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if v == sp.modelVer {
		return
	}
	if len(sp.openKeys) > 0 {
		sp.sealLocked()
		sp.enforceBudgetLocked()
	}
	sp.modelVer = v
	sp.resetOpenLocked()
}

// Stats snapshots the cold tier's counters.
func (sp *SpillStore) Stats() SpillStats {
	sp.mu.Lock()
	entries := len(sp.index)
	segments := len(sp.order)
	bytes := sp.sealedBytes + int64(len(sp.open))
	sp.mu.Unlock()
	return SpillStats{
		Entries:         entries,
		Segments:        segments,
		Bytes:           bytes,
		Hits:            sp.hits.Load(),
		Puts:            sp.puts.Load(),
		SealErrors:      sp.sealErrs.Load(),
		CorruptRecords:  sp.corruptRecs.Load(),
		CorruptSegments: sp.corruptSegs.Load(),
		DroppedSegments: sp.droppedSegs.Load(),
		Compactions:     sp.compactions.Load(),
	}
}

// Close seals the open buffer so its records survive a restart.
func (sp *SpillStore) Close() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.sealLocked()
	sp.enforceBudgetLocked()
	return nil
}

package serve

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// The /v1/embed, /v1/score and /v1/ingest response bodies are appended
// straight into the middleware's buffer, byte for byte what
// encoding/json's Encoder writes for embedResponse / scoreResponse /
// ingestResponse (FuzzWireEncode pins it). A served embed row is
// formatted through the row-text memo: the same row bits re-asked by a
// later request — the top-layer memo's case, one level up — copy their
// text instead of calling AppendFloat d times. See DESIGN.md "Wire
// encoding".

// The row-text memo's geometry is fixed: a slot holds one row's float32
// bits and up to rowTextPerValue bytes of text per value (served rows
// run 10.8–11.9 a value, comma included), and the slot count is the
// largest power of two whose table fits rowTextBudget: 4 096 slots,
// 2.3 MiB at d = 32, for a working set of a few hundred rows (8 192
// moved serve-read's hit share by 0.2–0.3 points).
const (
	rowTextBudget   = 4 << 20
	rowTextPerValue = 14
	rowTextStripes  = 64
)

// rowTextMemo maps a row's float32 bit patterns to its JSON array text:
// a pre-allocated, direct-mapped table indexed by a mix of the bits,
// where a hit needs every one of the row's words to match the slot's.
// The text is a pure function of those bits, so an entry is never stale
// — no stamp, no epoch, no invalidation: a swap, an ingest or a
// resharding changes the rows served, and a changed row is a miss.
// Lookups and stores allocate nothing.
type rowTextMemo struct {
	dim, textCap int
	lens         []int32  // slot p's text length; 0 = empty (a row's text is at least "[0]")
	bits         []uint32 // slot p's row at [p*dim, (p+1)*dim)
	text         []byte   // slot p's text at [p*textCap, p*textCap+lens[p])
	mu           [rowTextStripes]paddedMutex

	rows, hits atomic.Int64 // embed rows encoded / answered from the table
}

// paddedMutex pads each stripe lock to its own cache line.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

func newRowTextMemo(dim int) *rowTextMemo {
	per := rowTextPerValue*dim + 4*dim + 4
	n := 1
	for 2*n*per <= rowTextBudget {
		n *= 2
	}
	return newRowTextMemoSlots(dim, n)
}

// newRowTextMemoSlots builds a memo of n slots (a power of two).
func newRowTextMemoSlots(dim, n int) *rowTextMemo {
	c := rowTextPerValue * dim
	return &rowTextMemo{
		dim:     dim,
		textCap: c,
		lens:    make([]int32, n),
		bits:    make([]uint32, n*dim),
		text:    make([]byte, n*c),
	}
}

// rowHash mixes a row's bit patterns into the index of its memo slot.
func rowHash(row []float32) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ uint64(math.Float32bits(v))) * 0x100000001B3
	}
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

// appendRow appends row's JSON array text to dst: copied from the table
// when its slot holds exactly these bits (hit), formatted and stored
// otherwise. A text longer than a slot is formatted and not stored. ok
// is false if the row holds a non-finite value; dst is then returned
// unextended.
func (m *rowTextMemo) appendRow(dst []byte, row []float32) (_ []byte, hit, ok bool) {
	d, c := m.dim, m.textCap
	p := int(rowHash(row) & uint64(len(m.lens)-1))
	mu := &m.mu[p%rowTextStripes]
	mu.Lock()
	if n := int(m.lens[p]); n > 0 && sameBits(m.bits[p*d:(p+1)*d], row) {
		dst = append(dst, m.text[p*c:p*c+n]...)
		mu.Unlock()
		return dst, true, true
	}
	mu.Unlock()

	start := len(dst)
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = appendFloat(dst, float64(v), 32); !ok {
			return dst[:start], false, false
		}
	}
	dst = append(dst, ']')
	if t := dst[start:]; len(t) <= c {
		mu.Lock()
		m.lens[p] = int32(len(t))
		for j, v := range row {
			m.bits[p*d+j] = math.Float32bits(v)
		}
		copy(m.text[p*c:], t)
		mu.Unlock()
	}
	return dst, false, true
}

func sameBits(bits []uint32, row []float32) bool {
	for j, v := range row {
		if bits[j] != math.Float32bits(v) {
			return false
		}
	}
	return true
}

// appendEmbed appends what json.NewEncoder(w).Encode(embedResponseOf(
// slab, m.dim, degraded)) writes, trailing newline included, and counts
// the rows served. ok is false if a served row holds a non-finite value;
// dst is then returned unextended.
func (m *rowTextMemo) appendEmbed(dst []byte, slab []float32, degraded []int) ([]byte, bool) {
	d := m.dim
	n := len(slab) / d
	var null []bool
	if len(degraded) > 0 {
		null = make([]bool, n)
		for _, i := range degraded {
			null[i] = true
		}
	}
	start := len(dst)
	dst = append(dst, `{"embeddings":[`...)
	rows, hits := 0, 0
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		if null != nil && null[i] {
			dst = append(dst, "null"...)
			continue
		}
		var hit, ok bool
		if dst, hit, ok = m.appendRow(dst, slab[i*d:(i+1)*d]); !ok {
			return dst[:start], false
		}
		rows++
		if hit {
			hits++
		}
	}
	dst = append(dst, ']')
	if len(degraded) > 0 {
		dst = append(dst, `,"partial":true,"degraded":`...)
		dst = appendInts(dst, degraded)
	}
	m.rows.Add(int64(rows))
	m.hits.Add(int64(hits))
	return append(dst, "}\n"...), true
}

// embedResponseOf is the value appendEmbed encodes: row i of slab, or
// null for a degraded row.
func embedResponseOf(slab []float32, d int, degraded []int) embedResponse {
	rows := make([][]float32, len(slab)/d)
	for i := range rows {
		rows[i] = slab[i*d : (i+1)*d]
	}
	for _, i := range degraded {
		rows[i] = nil
	}
	return embedResponse{Embeddings: rows, Partial: len(degraded) > 0, Degraded: degraded}
}

// appendScore appends what json.NewEncoder(w).Encode(r) writes. ok is
// false if a logit or probability is non-finite; dst is then returned
// unextended.
func appendScore(dst []byte, r scoreResponse) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, `{"logits":`...)
	dst, ok := appendFloat64s(dst, r.Logits)
	if ok {
		dst = append(dst, `,"probs":`...)
		dst, ok = appendFloat64s(dst, r.Probs)
	}
	if !ok {
		return dst[:start], false
	}
	if r.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(r.Degraded) > 0 {
		dst = append(dst, `,"degraded":`...)
		dst = appendInts(dst, r.Degraded)
	}
	return append(dst, "}\n"...), true
}

// appendIngest appends what json.NewEncoder(w).Encode(r) writes. ok is
// false if a time is non-finite; dst is then returned unextended.
func appendIngest(dst []byte, r ingestResponse) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, `,"late":`...)
	dst = strconv.AppendInt(dst, int64(r.Late), 10)
	dst = append(dst, `,"dropped":`...)
	dst = strconv.AppendInt(dst, int64(r.Dropped), 10)
	dst = append(dst, `,"invalidated":`...)
	dst = strconv.AppendInt(dst, int64(r.Invalidated), 10)
	dst = append(dst, `,"num_edges":`...)
	dst = strconv.AppendInt(dst, int64(r.NumEdges), 10)
	dst = append(dst, `,"max_time":`...)
	dst, ok := appendFloat(dst, r.MaxTime, 64)
	if ok {
		dst = append(dst, `,"watermark":`...)
		dst, ok = appendFloat(dst, r.Watermark, 64)
	}
	if !ok {
		return dst[:start], false
	}
	return append(dst, "}\n"...), true
}

func appendFloat64s(dst []byte, vs []float64) ([]byte, bool) {
	if vs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var ok bool
		if dst, ok = appendFloat(dst, v, 64); !ok {
			return dst, false
		}
	}
	return append(dst, ']'), true
}

func appendInts(dst []byte, vs []int) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// appendFloat is encoding/json's floatEncoder at the given bit size: the
// shortest text that round-trips, in 'e' form below 1e-6 and from 1e21
// up (compared at that precision) with e-0N shortened to e-N, else in
// 'f' form. ok is false for NaN and ±Inf, which JSON cannot represent.
func appendFloat(dst []byte, f float64, bits int) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// writeEmbed writes the embed response over slab: 206 when rows are
// degraded, else 200. A non-finite row falls back to writeJSONStatus,
// whose 500 it keeps byte for byte.
func (s *Server) writeEmbed(w http.ResponseWriter, slab []float32, degraded []int) {
	code := http.StatusOK
	if len(degraded) > 0 {
		code = http.StatusPartialContent
	}
	size := 64 + len(slab)*(rowTextPerValue+1) + 12*len(degraded)
	body, ok := s.wire.appendEmbed(bodyBuffer(w, size), slab, degraded)
	if !ok {
		writeJSONStatus(w, code, embedResponseOf(slab, s.wire.dim, degraded))
		return
	}
	sendBody(w, code, body)
}

// writeScore is writeEmbed for a score response: 206 when it is
// partial, else 200.
func writeScore(w http.ResponseWriter, r scoreResponse) {
	code := http.StatusOK
	if r.Partial {
		code = http.StatusPartialContent
	}
	size := 64 + 2*len(r.Logits)*25 + 12*len(r.Degraded)
	body, ok := appendScore(bodyBuffer(w, size), r)
	if !ok {
		writeJSONStatus(w, code, r)
		return
	}
	sendBody(w, code, body)
}

// writeIngest is writeScore for an ingest reply, always 200.
func writeIngest(w http.ResponseWriter, r ingestResponse) {
	body, ok := appendIngest(bodyBuffer(w, 192), r)
	if !ok {
		writeJSON(w, r)
		return
	}
	sendBody(w, http.StatusOK, body)
}

// bodyBuffer returns an empty slice with room for size bytes to append a
// body into: behind the middleware the free end of its buffer (grown
// once), on a bare ResponseWriter a new slice.
func bodyBuffer(w http.ResponseWriter, size int) []byte {
	if bw, ok := w.(*bufferedResponse); ok {
		bw.body.Grow(size)
		return bw.body.AvailableBuffer()
	}
	return make([]byte, 0, size)
}

// sendBody commits a body appended into bodyBuffer's slice with the
// status and headers writeJSONStatus sends.
func sendBody(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	w.Write(body)
}

// jsonContentType is every JSON reply's Content-Type value. It is shared
// and never written to: a header map holds it, not a copy of it.
var jsonContentType = []string{"application/json"}

// wireStats is the /v1/stats "wire" section: embed rows encoded, and how
// many of them the row-text memo answered.
type wireStats struct {
	Rows        int64 `json:"rows"`
	RowTextHits int64 `json:"row_text_hits"`
}

func (m *rowTextMemo) stats() wireStats {
	return wireStats{Rows: m.rows.Load(), RowTextHits: m.hits.Load()}
}

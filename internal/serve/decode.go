package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// A POST body is read once, whole, into a pooled buffer, and parsed by
// its schema: the canonical shape of an /v1/embed, /v1/score or
// /v1/ingest body — the one encoding/json's Marshal writes, keys in
// field order, no whitespace, no escapes — is walked straight into the
// request's reusable slices. Any other body, valid or not, is handed as
// the same bytes to encoding/json, so what it decodes to, its status
// code and its error text are encoding/json's; FuzzDecodeRequest pins
// the two paths together. See DESIGN.md "Wire encoding".

// maxRequestBytes bounds a request body: far above any batch the
// engine is sized for, far below what would hurt the process.
const maxRequestBytes = 16 << 20

// A request goes back to requestPool only while its body buffer is at
// most maxPooledBody bytes and each decoded slice at most maxPooledRows
// long: one large request must not pin its memory in the pool.
const (
	maxPooledBody = 64 << 10
	maxPooledRows = 4096
)

// request is one POST's reusable memory: the body as read and the slices
// its fields decode into (score fills nodes, ts and f64 from edges).
type request struct {
	body  []byte
	nodes []int32
	ts    []float64
	edges []edgeJSON
	f64   []float64 // /v1/score's logits ‖ probs
	// lent is set when a backend call that read nodes and ts returned
	// early: it may still be reading them, so release leaves the request
	// to the garbage collector.
	lent bool
}

var requestPool = sync.Pool{New: func() any { return new(request) }}

func getRequest() *request { return requestPool.Get().(*request) }

// release returns q to the pool, unless it is lent or grew past the caps.
func (q *request) release() {
	if q.lent || cap(q.body) > maxPooledBody || cap(q.nodes) > maxPooledRows ||
		cap(q.ts) > maxPooledRows || cap(q.edges) > maxPooledRows || cap(q.f64) > maxPooledRows {
		return
	}
	requestPool.Put(q)
}

// resize returns s with length n, reusing its array when it is big
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// read reads r's body into q.body: 405 unless it is a POST, 413 past
// maxRequestBytes, 400 if the read fails.
func (q *request) read(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	b := q.body[:0]
	// Room for the whole body and the read that sees EOF, when its size
	// is known; one byte past the limit is enough to see it is exceeded.
	if n := r.ContentLength; n >= 0 && n <= maxRequestBytes && int(n) >= cap(b) {
		b = make([]byte, 0, n+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := r.Body.Read(b[len(b):min(cap(b), maxRequestBytes+1)])
		b = b[:len(b)+m]
		q.body = b
		if len(b) > maxRequestBytes {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
			return false
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad request body: %v", err)
			return false
		}
	}
}

// decode reads a POST body and decodes it into dst with encoding/json:
// the path for bodies without a schema decoder (/v1/explain).
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	q := getRequest()
	defer q.release()
	return q.read(w, r) && decodeJSON(w, q.body, dst)
}

// decodeJSON decodes body into dst with encoding/json, unknown fields
// refused, and then refuses anything but whitespace after the value.
func decodeJSON(w http.ResponseWriter, body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil && !onlySpace(body[dec.InputOffset():]) {
		// Unmarshal checks the whole input before decoding, so it words
		// the trailing bytes the way encoding/json words any syntax error.
		if err = json.Unmarshal(body, new(json.RawMessage)); err == nil {
			err = errors.New("trailing data after the request value")
		}
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func onlySpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// decodeEmbed decodes an /v1/embed body into q.nodes and q.ts.
func (q *request) decodeEmbed(w http.ResponseWriter, r *http.Request) bool {
	if !q.read(w, r) {
		return false
	}
	c := cursor{b: q.body}
	var ok bool
	if c.lit(`{"nodes":`) {
		if q.nodes, ok = array(&c, q.nodes[:0], c.int32); ok && c.lit(`,"times":`) {
			if q.ts, ok = array(&c, q.ts[:0], c.float64); ok && c.lit("}") && c.end() {
				return true
			}
		}
	}
	var req embedRequest
	if !decodeJSON(w, q.body, &req) {
		return false
	}
	q.nodes, q.ts = req.Nodes, req.Times
	return true
}

// decodeEdges decodes an /v1/ingest or /v1/score body — one array of
// edges under key — into q.edges.
func (q *request) decodeEdges(w http.ResponseWriter, r *http.Request, key string) bool {
	if !q.read(w, r) {
		return false
	}
	c := cursor{b: q.body}
	var ok bool
	if c.lit(`{"`) && c.lit(key) && c.lit(`":`) {
		if q.edges, ok = array(&c, q.edges[:0], c.edge); ok && c.lit("}") && c.end() {
			return true
		}
	}
	if key == "pairs" {
		var req scoreRequest
		ok = decodeJSON(w, q.body, &req)
		q.edges = req.Pairs
	} else {
		var req ingestRequest
		ok = decodeJSON(w, q.body, &req)
		q.edges = req.Edges
	}
	return ok
}

// cursor walks a body in the canonical shape. A step that does not find
// it returns false, and the caller hands the whole body to
// encoding/json, so a failed step need not restore the position.
type cursor struct {
	b []byte
	i int
}

// lit consumes s.
func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// end reports whether only JSON whitespace is left.
func (c *cursor) end() bool { return onlySpace(c.b[c.i:]) }

// digits consumes a JSON integer part, an optional minus and then 0 or
// a digit run without a leading zero, and returns the digits.
func (c *cursor) digits() (neg bool, ds []byte, ok bool) {
	i := c.i
	if i < len(c.b) && c.b[i] == '-' {
		neg = true
		i++
	}
	end := skipDigits(c.b, i)
	ds = c.b[i:end]
	if len(ds) == 0 || len(ds) > 1 && ds[0] == '0' {
		return false, nil, false
	}
	c.i = end
	return neg, ds, true
}

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// int32 consumes a number encoding/json decodes into an int32 field:
// an integer, no fraction or exponent, in range.
func (c *cursor) int32() (int32, bool) {
	neg, ds, ok := c.digits()
	if !ok || len(ds) > 10 || c.i < len(c.b) && (c.b[c.i] == '.' || c.b[c.i] == 'e' || c.b[c.i] == 'E') {
		return 0, false
	}
	var v int64
	for _, d := range ds {
		v = 10*v + int64(d-'0')
	}
	if neg {
		v = -v
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, false
	}
	return int32(v), true
}

// float64 consumes a JSON number and converts it as encoding/json does
// (strconv.ParseFloat), refusing one that overflows. An integer of at
// most 15 digits is exact as a float64 and skips the parse.
func (c *cursor) float64() (float64, bool) {
	start := c.i
	neg, ds, ok := c.digits()
	if !ok {
		return 0, false
	}
	b, i := c.b, c.i
	frac := i < len(b) && b[i] == '.'
	if frac {
		j := i + 1
		if i = skipDigits(b, j); i == j {
			return 0, false
		}
	}
	exp := i < len(b) && (b[i] == 'e' || b[i] == 'E')
	if exp {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		if i = skipDigits(b, i); i == j {
			return 0, false
		}
	}
	c.i = i
	if !frac && !exp && len(ds) <= 15 {
		var v int64
		for _, d := range ds {
			v = 10*v + int64(d-'0')
		}
		f := float64(v)
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// array consumes a JSON array whose elements elem consumes, appending
// them to dst.
func array[T any](c *cursor, dst []T, elem func() (T, bool)) ([]T, bool) {
	if !c.lit("[") {
		return dst, false
	}
	if c.lit("]") {
		return dst, true
	}
	for {
		v, ok := elem()
		if !ok {
			return dst, false
		}
		dst = append(dst, v)
		if c.lit("]") {
			return dst, true
		}
		if !c.lit(",") {
			return dst, false
		}
	}
}

// edge consumes {"src":…,"dst":…,"time":…} with an optional trailing
// "idx".
func (c *cursor) edge() (e edgeJSON, ok bool) {
	if !c.lit(`{"src":`) {
		return e, false
	}
	if e.Src, ok = c.int32(); !ok || !c.lit(`,"dst":`) {
		return e, false
	}
	if e.Dst, ok = c.int32(); !ok || !c.lit(`,"time":`) {
		return e, false
	}
	if e.Time, ok = c.float64(); !ok {
		return e, false
	}
	if c.lit(`,"idx":`) {
		if e.Idx, ok = c.int32(); !ok {
			return e, false
		}
	}
	return e, c.lit("}")
}

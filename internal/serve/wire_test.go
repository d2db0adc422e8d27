package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
)

// jsonEncode is what writeJSONStatus sends for v, or the error it turns
// into a 500.
func jsonEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// wireFuzzBytes packs float32 row values and float64 score values into
// FuzzWireEncode's inputs.
func wireFuzzBytes(f32 []float32, f64 []float64) (rows, scores []byte) {
	for _, v := range f32 {
		rows = binary.LittleEndian.AppendUint32(rows, math.Float32bits(v))
	}
	for _, v := range f64 {
		scores = binary.LittleEndian.AppendUint64(scores, math.Float64bits(v))
	}
	return rows, scores
}

// FuzzWireEncode: the append encoders write exactly what encoding/json's
// Encoder writes for the same embedResponse / scoreResponse /
// ingestResponse — twice over for embeds, so the second encode answers
// rows from the row-text memo — and refuse exactly the values it refuses.
func FuzzWireEncode(f *testing.F) {
	nf32 := func(x, toward float32) float32 { return math.Nextafter32(x, toward) }
	nf64 := math.Nextafter
	rows, scores := wireFuzzBytes(
		[]float32{
			0, float32(math.Copysign(0, -1)), math.Float32frombits(1), math.Float32frombits(0x007fffff),
			math.SmallestNonzeroFloat32, math.Float32frombits(0x00800000), -math.MaxFloat32, math.MaxFloat32,
			1e-6, nf32(1e-6, 0), nf32(1e-6, 1), -1e-6, 1e-7, 1e-10, 1e-38,
			1e21, nf32(1e21, 0), nf32(1e21, 2e21), -1e21, 1e20, 123456789, 0.1, -0.33333334, 1,
		},
		[]float64{
			0, math.Copysign(0, -1), 5e-324, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64, -math.MaxFloat64,
			1e-6, nf64(1e-6, 0), nf64(1e-6, 1), float64(float32(1e-6)), float64(nf32(1e-6, 1)), 1e-7, 1e-300,
			1e21, nf64(1e21, 0), nf64(1e21, 2e21), float64(float32(1e21)), float64(nf32(1e21, 0)), -1e21, 0.5, 1,
		})
	nan, _ := wireFuzzBytes([]float32{0.5, float32(math.NaN())}, nil)
	inf, infScore := wireFuzzBytes([]float32{float32(math.Inf(1)), 1}, []float64{0.25, math.Inf(-1)})
	_, nanScore := wireFuzzBytes(nil, []float64{math.NaN(), 0.5})
	for _, d := range []uint8{0, 1, 3, 7} {
		f.Add(d, rows, uint64(0), scores)
		f.Add(d, rows, uint64(0b1010_0001), scores) // degraded rows and pairs
	}
	f.Add(uint8(0), rows, uint64(1)<<63, []byte{}) // partial with no degraded pair; nil score slices
	f.Add(uint8(1), nan, uint64(0), nanScore)
	f.Add(uint8(1), nan, uint64(0b10), scores) // the NaN row is degraded: null, no error
	f.Add(uint8(0), inf, uint64(0), infScore)
	f.Add(uint8(3), []byte{}, uint64(0), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, dim uint8, rowBytes []byte, mask uint64, scoreBytes []byte) {
		d := int(dim%8) + 1
		slab := make([]float32, len(rowBytes)/4/d*d)
		for i := range slab {
			slab[i] = math.Float32frombits(binary.LittleEndian.Uint32(rowBytes[4*i:]))
		}
		var degraded []int
		for i := 0; i < len(slab)/d && i < 63; i++ {
			if mask>>i&1 == 1 {
				degraded = append(degraded, i)
			}
		}
		m := newRowTextMemoSlots(d, 4)
		want, err := jsonEncode(embedResponseOf(slab, d, degraded))
		for pass := 0; pass < 2; pass++ {
			got, ok := m.appendEmbed([]byte("prefix"), slab, degraded)
			if ok != (err == nil) {
				t.Fatalf("embed pass %d: encoder ok=%v, encoding/json err=%v", pass, ok, err)
			}
			if !ok && string(got) != "prefix" {
				t.Fatalf("embed pass %d: refused encode extended dst: %q", pass, got)
			}
			if ok && !bytes.Equal(got[len("prefix"):], want) {
				t.Fatalf("embed pass %d:\n got %s\nwant %s", pass, got[len("prefix"):], want)
			}
		}

		var sr scoreResponse
		if len(scoreBytes) > 0 {
			vs := make([]float64, len(scoreBytes)/8)
			for i := range vs {
				vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(scoreBytes[8*i:]))
			}
			sr.Logits, sr.Probs = vs[:len(vs)/2], vs[len(vs)/2:]
		}
		for i := range sr.Logits {
			if i < 63 && mask>>i&1 == 1 {
				sr.Degraded = append(sr.Degraded, i)
			}
		}
		sr.Partial = len(sr.Degraded) > 0 || mask>>63 == 1
		want, err = jsonEncode(sr)
		got, ok := appendScore(nil, sr)
		if ok != (err == nil) || ok && !bytes.Equal(got, want) || !ok && len(got) != 0 {
			t.Fatalf("score: encoder ok=%v %q, encoding/json err=%v %q", ok, got, err, want)
		}

		ir := ingestResponse{
			Accepted: int(mask & 0xff), Late: int(mask >> 8 & 0xff), Dropped: int(mask >> 16 & 0xffff),
			Invalidated: int(mask >> 32 & 0xffff), NumEdges: int(int64(mask) >> 48),
		}
		if len(sr.Probs) > 0 {
			ir.MaxTime, ir.Watermark = sr.Probs[0], sr.Probs[len(sr.Probs)-1]
		}
		want, err = jsonEncode(ir)
		got, ok = appendIngest([]byte("prefix"), ir)
		if ok != (err == nil) || ok && !bytes.Equal(got[len("prefix"):], want) || !ok && string(got) != "prefix" {
			t.Fatalf("ingest: encoder ok=%v %q, encoding/json err=%v %q", ok, got, err, want)
		}
	})
}

// TestWireRowTextSlotCollision: rows sharing a slot never serve each
// other's text; a hit needs every bit pattern to match, so rows that
// differ only in the sign of a zero are two rows.
func TestWireRowTextSlotCollision(t *testing.T) {
	m := newRowTextMemoSlots(2, 1) // every row maps to slot 0
	a := []float32{0, 0.5}
	b := []float32{float32(math.Copysign(0, -1)), 0.5}
	text := func(row []float32) string {
		j, _ := json.Marshal(row)
		return string(j)
	}
	for _, step := range []struct {
		label string
		row   []float32
		hit   bool
	}{
		{"a cold", a, false},
		{"a warm", a, true},
		{"b evicts a", b, false},
		{"b warm", b, true},
		{"a evicts b", a, false},
		{"a warm again", a, true},
	} {
		got, hit, ok := m.appendRow(nil, step.row)
		if !ok || string(got) != text(step.row) || hit != step.hit {
			t.Fatalf("%s: %q hit=%v ok=%v, want %q hit=%v", step.label, got, hit, ok, text(step.row), step.hit)
		}
	}
}

// randomRow fills a row with values a layer might produce and, one in
// four, arbitrary finite bit patterns (subnormals, huge and tiny
// magnitudes, -0).
func randomRow(rng *rand.Rand, d int) []float32 {
	row := make([]float32, d)
	for j := range row {
		switch rng.Intn(4) {
		case 0:
			for {
				v := math.Float32frombits(rng.Uint32())
				if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
					row[j] = v
					break
				}
			}
		default:
			row[j] = float32(rng.NormFloat64())
		}
	}
	return row
}

// TestWireRowTextConcurrent: goroutines encoding responses over an
// overlapping row set through one small memo — slots stored, hit and
// evicted concurrently — each get every byte encoding/json writes.
func TestWireRowTextConcurrent(t *testing.T) {
	const d, pool, workers, iters = 8, 48, 8, 200
	rng := rand.New(rand.NewSource(7))
	rows := make([][]float32, pool)
	for i := range rows {
		rows[i] = randomRow(rng, d)
	}
	m := newRowTextMemoSlots(d, 16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var body []byte
			for it := 0; it < iters; it++ {
				n := 1 + rng.Intn(12)
				slab := make([]float32, 0, n*d)
				for i := 0; i < n; i++ {
					slab = append(slab, rows[rng.Intn(pool)]...)
				}
				var degraded []int
				if rng.Intn(5) == 0 {
					degraded = []int{rng.Intn(n)}
				}
				want, err := jsonEncode(embedResponseOf(slab, d, degraded))
				var ok bool
				body, ok = m.appendEmbed(body[:0], slab, degraded)
				if err != nil || !ok || !bytes.Equal(body, want) {
					t.Errorf("worker %d iter %d: ok=%v err=%v\n got %s\nwant %s", seed, it, ok, err, body, want)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if st := m.stats(); st.RowTextHits == 0 || st.RowTextHits >= st.Rows {
		t.Fatalf("memo stats %+v: the run exercised no hits or no misses", st)
	}
}

// TestWireEncodeAllocs: a warm, all-hit embed encode allocates only the
// body buffer's one Grow, and a row lookup or store allocates nothing.
func TestWireEncodeAllocs(t *testing.T) {
	const d, n = 32, 16
	rng := rand.New(rand.NewSource(3))
	var slab []float32
	for i := 0; i < n; i++ {
		slab = append(slab, randomRow(rng, d)...)
	}
	m := newRowTextMemo(d)
	bw := &bufferedResponse{header: make(http.Header)}
	encode := func() {
		bw.body = bytes.Buffer{}
		body, _ := m.appendEmbed(bodyBuffer(bw, 1<<14), slab, nil)
		bw.body.Write(body)
	}
	encode()
	hits := m.hits.Load()
	// One Grow is one allocation, two under -race: measure it.
	grow := testing.AllocsPerRun(50, func() {
		bw.body = bytes.Buffer{}
		bw.body.Grow(1 << 14)
	})
	if got := testing.AllocsPerRun(50, encode); got != grow {
		t.Fatalf("warm embed encode: %v allocs, want %v (the body's Grow)", got, grow)
	}
	if got := m.hits.Load() - hits; got != 51*n {
		t.Fatalf("warm encodes hit %d rows, want %d", got, 51*n)
	}
	want, _ := jsonEncode(embedResponseOf(slab, d, nil))
	if !bytes.Equal(bw.body.Bytes(), want) {
		t.Fatalf("warm encode differs from encoding/json:\n got %s\nwant %s", bw.body.Bytes(), want)
	}

	one := newRowTextMemoSlots(d, 1)
	dst := make([]byte, 0, 1<<12)
	i := 0
	if got := testing.AllocsPerRun(50, func() { // two rows, one slot: every ask misses and stores
		dst, _, _ = one.appendRow(dst[:0], slab[(i%2)*d:(i%2+1)*d])
		i++
	}); got != 0 {
		t.Fatalf("row miss + store: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { dst, _, _ = one.appendRow(dst[:0], slab[:d]) }); got != 0 {
		t.Fatalf("row hit: %v allocs, want 0", got)
	}
}

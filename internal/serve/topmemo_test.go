package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"tgopt/internal/graph"
)

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestServeTopMemoSharedAcrossEndpoints: /v1/embed, /v1/score, the
// batcher's passes — inline on the request ("direct") or on its runner
// ("batched") — and every shard leg answer from one memo per engine,
// and an acknowledged ingest is visible to the very next ask — rows
// equal the baseline on the post-ingest graph, bit for bit.
func TestServeTopMemoSharedAcrossEndpoints(t *testing.T) {
	for _, mode := range []string{"direct", "batched", "sharded"} {
		t.Run(mode, func(t *testing.T) {
			m, dyn := testModelDyn(t)
			dyn.SetLateness(100)
			s := newTestServer(t, m, dyn, func(c *Config) {
				switch mode {
				case "sharded":
					c.Shards = 2
				case "batched":
					c.Batch.MaxBatch = 1 // every pass on the batcher's runner, none inline
				}
			})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(ts.Close)

			ingest(t, ts.URL, shardTestEdges)
			ns, at := []int32{1, 2, 3, 4}, []float64{90, 90, 90, 90}
			baseline := func() [][]float32 {
				sampler := graph.NewDynamicSampler(dyn, m.Cfg.NumNeighbors, graph.MostRecent, 0)
				h := m.Embed(sampler, ns, at)
				rows := make([][]float32, len(ns))
				for i := range rows {
					rows[i] = h.Row(i)
				}
				return rows
			}
			same := func(label string, got, want [][]float32) {
				t.Helper()
				for i := range want {
					for j := range want[i] {
						if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
							t.Fatalf("%s: row %d col %d = %v, baseline %v", label, i, j, got[i][j], want[i][j])
						}
					}
				}
			}

			same("first ask", embedRows(t, ts.URL, ns, at), baseline())
			hits := getStats(t, ts.URL).Cache.TopMemo.Hits
			same("re-ask", embedRows(t, ts.URL, ns, at), baseline())
			if got := getStats(t, ts.URL).Cache.TopMemo.Hits - hits; got != 4 {
				t.Fatalf("identical /v1/embed re-ask hit %d memo rows, want 4", got)
			}
			// /v1/score embeds src‖dst through the same engines.
			hits += 4
			if resp, body := post(t, ts.URL+"/v1/score", scoreRequest{Pairs: []edgeJSON{{Src: 1, Dst: 2, Time: 90}, {Src: 3, Dst: 4, Time: 90}}}); resp.StatusCode != 200 {
				t.Fatalf("score: %d %s", resp.StatusCode, body)
			}
			if got := getStats(t, ts.URL).Cache.TopMemo.Hits - hits; got != 4 {
				t.Fatalf("/v1/score over embedded targets hit %d memo rows, want 4", got)
			}
			hits += 4

			// A late edge under the asked time, then an append at it.
			ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 3, Time: 75}, {Src: 2, Dst: 4, Time: 90}})
			same("after ingest", embedRows(t, ts.URL, ns, at), baseline())
			if got := getStats(t, ts.URL).Cache.TopMemo.Hits; got != hits {
				t.Fatalf("first ask after an acknowledged ingest was answered from the memo (%d hits)", got-hits)
			}
			same("re-ask after ingest", embedRows(t, ts.URL, ns, at), baseline())
			if got := getStats(t, ts.URL).Cache.TopMemo.Hits - hits; got != 4 {
				t.Fatalf("re-ask after ingest hit %d memo rows, want 4", got)
			}
		})
	}
}

// TestWriteJSONEncodeFailureIsAClean500: a value encoding/json refuses
// (a NaN logit, a NaN in an embedding row) must yield a 500 whose body is
// the error object alone — behind the middleware's buffered writer, where
// the response is encoded in place, and on a bare ResponseWriter — and
// the append encoders must send the same 500 as writeJSON does.
func TestWriteJSONEncodeFailureIsAClean500(t *testing.T) {
	const want500 = `{"error":"encode error: json: unsupported value: NaN"}` + "\n"
	bad := scoreResponse{Logits: []float64{0.5, math.NaN()}, Probs: []float64{0.6, 0.5}}
	// The NaN sits in the second row, so the first is formatted (and
	// memoized) before the encoder meets it.
	badSlab := []float32{0.25, -1, 0.5, float32(math.NaN())}
	s := &Server{wire: newRowTextMemo(2)}
	for _, tc := range []struct {
		label, leak string
		write       func(http.ResponseWriter)
	}{
		{"writeJSON score", "logits", func(w http.ResponseWriter) { writeJSON(w, bad) }},
		{"writeScore", "logits", func(w http.ResponseWriter) { writeScore(w, bad) }},
		{"writeEmbed", "embeddings", func(w http.ResponseWriter) { s.writeEmbed(w, badSlab, nil) }},
	} {
		bw := &bufferedResponse{header: make(http.Header)}
		tc.write(bw)
		rec := httptest.NewRecorder()
		tc.write(rec)
		for _, got := range []struct {
			path  string
			code  int
			ctype string
			body  []byte
		}{
			{"buffered", bw.code, bw.header.Get("Content-Type"), bw.body.Bytes()},
			{"bare", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes()},
		} {
			if got.code != http.StatusInternalServerError || got.ctype != "application/json" {
				t.Fatalf("%s, %s: status %d, content type %q; want 500 application/json", tc.label, got.path, got.code, got.ctype)
			}
			if string(got.body) != want500 || bytes.Contains(got.body, []byte(tc.leak)) {
				t.Fatalf("%s, %s: body %q, want the error object alone: %q", tc.label, got.path, got.body, want500)
			}
		}
	}

	// The buffered and the bare path write the same bytes on success.
	for _, tc := range []struct {
		label string
		write func(http.ResponseWriter)
	}{
		{"writeJSONStatus", func(w http.ResponseWriter) {
			writeJSONStatus(w, http.StatusPartialContent, scoreResponse{Logits: []float64{0.5}, Probs: []float64{0.6}})
		}},
		{"writeScore", func(w http.ResponseWriter) {
			writeScore(w, scoreResponse{Logits: []float64{0.5}, Probs: []float64{0.6}, Partial: true, Degraded: []int{0}})
		}},
		{"writeEmbed", func(w http.ResponseWriter) { s.writeEmbed(w, []float32{0.25, -1, 0.5, 2}, []int{1}) }},
		{"writeEmbed 200", func(w http.ResponseWriter) { s.writeEmbed(w, []float32{0.25, -1, 0.5, 2}, nil) }},
	} {
		bw := &bufferedResponse{header: make(http.Header)}
		tc.write(bw)
		rec := httptest.NewRecorder()
		tc.write(rec)
		if bw.code != rec.Code || !bytes.Equal(bw.body.Bytes(), rec.Body.Bytes()) || bw.header.Get("Content-Type") != rec.Header().Get("Content-Type") {
			t.Fatalf("%s: buffered response (%d %q) differs from the bare one (%d %q)", tc.label, bw.code, bw.body.Bytes(), rec.Code, rec.Body.Bytes())
		}
	}
}

// TestServeRequestBodyLimit: a body of exactly maxRequestBytes is
// served, one byte more is refused with 413 and the usual JSON error.
func TestServeRequestBodyLimit(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})
	// The padding sits inside the object, so the decoder has to read
	// through all of it before the value ends.
	body := func(size int) []byte {
		head, tail := []byte(`{"nodes":[1],"times":[5]`), []byte(`}`)
		b := make([]byte, 0, size)
		b = append(b, head...)
		b = append(b, bytes.Repeat([]byte(" "), size-len(head)-len(tail))...)
		return append(b, tail...)
	}
	for _, tc := range []struct {
		size, want int
	}{{maxRequestBytes, http.StatusOK}, {maxRequestBytes + 1, http.StatusRequestEntityTooLarge}} {
		resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(body(tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d-byte body: status %d, want %d (%s)", tc.size, resp.StatusCode, tc.want, buf.String())
		}
		if tc.want != http.StatusOK {
			var e map[string]string
			if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("413 body is not the JSON error object: %q", buf.String())
			}
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tgopt/internal/graph"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
)

// fuzzIngestServer is built once per fuzz process: state accumulates
// across iterations, which is exactly what the invariant wants — the
// ingested counter must track the live edge count no matter how many
// partial, late, dropped, or rejected requests have gone before.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzTS   *httptest.Server
)

func fuzzIngestTarget(f *testing.F) (*Server, *httptest.Server) {
	f.Helper()
	fuzzOnce.Do(func() {
		const nodes, d = 20, 8
		r := tensor.NewRNG(4)
		nodeFeat := tensor.Randn(r, nodes+1, d)
		edgeFeat := tensor.Randn(r, 4096, d)
		for j := 0; j < d; j++ {
			nodeFeat.Set(0, 0, j)
			edgeFeat.Set(0, 0, j)
		}
		cfg := tgat.Config{Layers: 2, Heads: 2, NodeDim: d, EdgeDim: d, TimeDim: d, NumNeighbors: 3, Seed: 6}
		m, err := tgat.NewModel(cfg, nodeFeat, edgeFeat)
		if err != nil {
			f.Fatal(err)
		}
		dyn := graph.NewDynamic(nodes)
		dyn.SetLateness(100)
		if fuzzSrv, err = NewFromConfig(m, dyn, testConfig()); err != nil {
			f.Fatal(err)
		}
		fuzzTS = httptest.NewServer(fuzzSrv.Handler())
	})
	return fuzzSrv, fuzzTS
}

// FuzzIngest throws arbitrary bodies at /v1/ingest and asserts the
// accepted-prefix accounting invariant stays exact: the ingested
// counter always equals the number of live edges in the graph —
// appends and late inserts count, drops and rejected suffixes never do.
func FuzzIngest(f *testing.F) {
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":10}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":50},{"src":2,"dst":3,"time":20}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":1e9},{"src":3,"dst":4,"time":1}]}`))
	f.Add([]byte(`{"edges":[{"src":0,"dst":2,"time":5}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":99,"time":5}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":1e999}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":3,"idx":7},{"src":1,"dst":2,"time":4,"idx":7}]}`))
	f.Add([]byte(`{"edges":[{"src":1,"dst":2,"time":3,"bogus":1}]}`))
	f.Add([]byte(`{"edges":`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"edges":[{"src":2147483647,"dst":-2147483648,"time":-1e308}]}`))

	srv, ts := fuzzIngestTarget(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, buf.String())
		}
		if resp.StatusCode == http.StatusOK {
			var ir ingestResponse
			if err := json.Unmarshal(buf.Bytes(), &ir); err != nil {
				t.Fatalf("bad ingest response %q: %v", buf.String(), err)
			}
			if ir.Accepted < 0 || ir.Late < 0 || ir.Dropped < 0 || ir.Invalidated < 0 {
				t.Fatalf("negative counters: %+v", ir)
			}
			if ir.NumEdges != srv.dyn.NumEdges() {
				t.Fatalf("response NumEdges %d != graph %d", ir.NumEdges, srv.dyn.NumEdges())
			}
		}
		// The invariant: every edge counted as ingested is in the graph,
		// and every edge in the graph was counted — across the whole
		// accumulated fuzz history, partial failures included.
		if got, want := srv.ingested.Load(), int64(srv.dyn.NumEdges()); got != want {
			t.Fatalf("ingested counter %d != live edges %d", got, want)
		}
	})
}

// FuzzDecodeRequest: for every body and each schema-decoded request
// type, the server's decoder and encoding/json — a Decoder with unknown
// fields refused, then only whitespace allowed after the value — agree
// on accepting or refusing, on the status code, and on every decoded
// value to the bit. The decoder's requests come from the pool, so a
// value left over from an earlier body would show.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range []string{
		`{"nodes":[1,2],"times":[50,50.5]}`,
		`{"pairs":[{"src":1,"dst":2,"time":50},{"src":3,"dst":4,"time":-7.25e3}]}`,
		`{"edges":[{"src":1,"dst":2,"time":10,"idx":3},{"src":2,"dst":3,"time":11}]}`,
		` {"nodes": [1, 2], "times": [50, 50]} `,
		`{"nodes":[1,2],"times":[50,50]}` + "\n\t\r ",
		`{"times":[50],"nodes":[1]}`,
		`{"pairs":[{"dst":2,"src":1,"time":50}]}`,
		`{"Nodes":[1],"TIMES":[50]}`,
		`{"edges":[{"SRC":1,"Dst":2,"time":10,"Idx":4}]}`,
		`{"nodes":[1],"times":[50]}`,
		`{"edges":[{"src":1,"dst":2,"time":10}]}`,
		`{"nodes":[1],"nodes":[2,3],"times":[5,6]}`,
		`{"edges":[{"src":1,"src":2,"dst":2,"time":10}]}`,
		`{"edges":[{"src":1,"dst":2,"time":10,"idx":3,"idx":0}]}`,
		`null`, `{"nodes":null,"times":null}`, `{"edges":[null]}`, `{"pairs":[{"src":null,"dst":2,"time":1}]}`,
		`{"nodes":[],"times":[]}`, `{"pairs":[]}`, `{"edges":[]}`, `{}`,
		`{"nodes":[01],"times":[1]}`, `{"nodes":[+1],"times":[1]}`, `{"nodes":[1],"times":[.5]}`,
		`{"nodes":[1],"times":[1.]}`, `{"nodes":[-0],"times":[-0]}`, `{"nodes":[1],"times":[1e400]}`,
		`{"nodes":[1],"times":[-1e400]}`, `{"nodes":[1],"times":[1e-400]}`, `{"nodes":[1],"times":[123456789012345678]}`,
		`{"nodes":[2147483648],"times":[1]}`, `{"nodes":[-2147483648],"times":[1]}`, `{"nodes":[2147483647],"times":[1]}`,
		`{"edges":[{"src":1,"dst":2,"time":1,"idx":-2147483649}]}`, `{"nodes":[1.0],"times":[1]}`, `{"nodes":[1e2],"times":[1]}`,
		`{"nodes":[0x10],"times":[1]}`, `{"nodes":[1],"times":[0x10]}`, `{"nodes":[1],"times":[1E+2]}`,
		`{"nodes":[1],"times":[1]}garbage`, `{"edges":[{"src":1,"dst":2,"time":10}]}{}`, `{"pairs":[{"src":1,"dst":2,"time":1}]} x`,
		`{"nodes":[1],"times":[1],"extra":0}`, `{"edges":[{"src":1,"dst":2,"time":10,"bogus":1}]}`,
		`{"nodes":[1],"times":[1]`, ``, `   `, `[1,2]`, `"nodes"`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, key := range []string{"nodes", "pairs", "edges"} {
			var (
				embed  embedRequest
				score  scoreRequest
				ingest ingestRequest
				dst    any = &embed
			)
			switch key {
			case "pairs":
				dst = &score
			case "edges":
				dst = &ingest
			}
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			wantOK := dec.Decode(dst) == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\n\r")) == 0

			q := getRequest()
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
			var ok bool
			if key == "nodes" {
				ok = q.decodeEmbed(rec, r)
			} else {
				ok = q.decodeEdges(rec, r, key)
			}
			if ok != wantOK || !ok && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s body %q: decoder ok=%v status %d, encoding/json ok=%v", key, body, ok, rec.Code, wantOK)
			}
			same := true
			switch {
			case !ok:
			case key == "nodes":
				same = sameInt32s(q.nodes, embed.Nodes) && sameFloat64s(q.ts, embed.Times)
			case key == "pairs":
				same = sameEdges(q.edges, score.Pairs)
			default:
				same = sameEdges(q.edges, ingest.Edges)
			}
			if !same {
				t.Fatalf("%s body %q: decoded %v %v %v, encoding/json %v %v %v", key, body, q.nodes, q.ts, q.edges, embed, score, ingest)
			}
			q.release()
		}
	})
}

func sameInt32s(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameFloat64s(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameEdges(a, b []edgeJSON) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst || a[i].Idx != b[i].Idx ||
			math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) {
			return false
		}
	}
	return true
}

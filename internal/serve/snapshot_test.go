package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/faultfs"
)

func snapshotEdges() []edgeJSON {
	var edges []edgeJSON
	for i := 0; i < 40; i++ {
		edges = append(edges, edgeJSON{
			Src: int32(i%10 + 1), Dst: int32(i%5 + 11), Time: float64(100 * (i + 1)), Idx: int32(i + 1),
		})
	}
	return edges
}

// warmCache runs a few embed requests so the engine memoizes
// embeddings worth snapshotting.
func warmCache(t *testing.T, s *Server, url string) {
	t.Helper()
	ingest(t, url, snapshotEdges())
	resp, body := post(t, url+"/v1/embed", embedRequest{
		Nodes: []int32{1, 2, 3, 11, 12}, Times: []float64{5000, 5000, 5000, 5000, 5000},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("embed failed: %d %s", resp.StatusCode, body)
	}
	if s.CacheLen() == 0 {
		t.Fatal("embed requests populated no cache entries")
	}
}

// TestServeWarmStartRoundTrip: what SaveSnapshot writes, WarmStart of a
// second process in the same mode restores — one file for a single
// core, a directory of per-shard snapshots for a pool.
func TestServeWarmStartRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		path := filepath.Join(t.TempDir(), "cache.bin")
		s, ts := mk(path)
		warmCache(t, s, ts.URL)
		if err := s.SaveSnapshot(path); err != nil {
			t.Fatal(err)
		}

		s2, ts2 := mk(path)
		ingest(t, ts2.URL, snapshotEdges())
		var lines []string
		s2.WarmStart(path, func(f string, a ...any) { lines = append(lines, f) })
		if got, want := s2.CacheLen(), s.CacheLen(); got != want {
			t.Fatalf("warm start restored %d entries, want %d (log: %v)", got, want, lines)
		}
	})
}

// TestServeWarmStartMatchesColdServer: a warm-started server answers
// byte for byte what a cold server over the same graph and parameters
// answers. A boot on a graph that lost an edge the saver held (past
// the clock, or tying it), or that gained one, warm-starts with the
// rows that edge does not reach; a boot on other parameters under the
// same version label, and a version-4 file, are refused and counted.
func TestServeWarmStartMatchesColdServer(t *testing.T) {
	base := snapshotEdges()
	withExtra := append(slices.Clone(base), edgeJSON{Src: 1, Dst: 12, Time: 4500, Idx: int32(len(base) + 1)})
	// The tie lands at the stream's clock, off the last edge's endpoints.
	withTie := append(slices.Clone(base), edgeJSON{Src: 1, Dst: 12, Time: 4000, Idx: int32(len(base) + 1)})
	req := embedRequest{Nodes: []int32{1, 2, 11}, Times: []float64{5000, 5000, 5000}}

	other, _ := testModelDyn(t)
	other.Params()[0].Data()[0] += 1
	otherParams := filepath.Join(t.TempDir(), "other.tgp")
	if err := other.SaveParams(otherParams); err != nil {
		t.Fatal(err)
	}
	// asVersion4 rewrites every snapshot file under path into a
	// version-4 envelope around the same payload.
	asVersion4 := func(t *testing.T, path string) {
		files := []string{path}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			files, _ = filepath.Glob(filepath.Join(path, "*.tgc"))
		}
		for _, f := range files {
			var payload []byte
			err := checkpoint.ReadFS(checkpoint.OS{}, f, func(_ uint32, r io.Reader) (err error) {
				payload, err = io.ReadAll(r)
				return err
			})
			if err == nil {
				err = checkpoint.WriteFS(checkpoint.OS{}, f, 4, func(w io.Writer) error {
					_, err := w.Write(payload)
					return err
				})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		embed := func(url string) []byte {
			t.Helper()
			body, code, err := postBody(url, "/v1/embed", req)
			if err != nil || code != 200 {
				t.Fatalf("embed: code %d err %v (%s)", code, err, body)
			}
			return body
		}
		// boot builds a server over edges, swapped to params when set
		// (labelled 0, as the saver's are).
		boot := func(snap string, edges []edgeJSON, params string) (*Server, string) {
			s, ts := mk(snap)
			if params != "" {
				if err := s.SwapParams(nil, params, 0); err != nil {
					t.Fatal(err)
				}
			}
			ingest(t, ts.URL, edges)
			return s, ts.URL
		}
		cold := func(edges []edgeJSON, params string) []byte {
			_, url := boot("", edges, params)
			return embed(url)
		}
		for _, changed := range [][]edgeJSON{withExtra, withTie} {
			if bytes.Equal(cold(base, ""), cold(changed, "")) {
				t.Fatal("the extra edge changes no asked row: the cases test nothing")
			}
		}
		for _, tc := range []struct {
			name        string
			saved, boot []edgeJSON
			params      string
			craft       func(*testing.T, string)
			warm        bool
		}{
			{"lost-edge", withExtra, base, "", nil, true},
			{"gained-edge", base, withExtra, "", nil, true},
			{"lost-edge-tying-the-clock", withTie, base, "", nil, true},
			{"other-parameters", base, base, otherParams, nil, false},
			{"version-4-file", base, base, "", asVersion4, false},
		} {
			path := filepath.Join(t.TempDir(), "cache.bin")
			s, url := boot(path, tc.saved, "")
			embed(url)
			if err := s.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			if tc.craft != nil {
				tc.craft(t, path)
			}
			s2, url2 := boot(path, tc.boot, tc.params)
			s2.WarmStart(path, nil)
			if warm := s2.CacheLen() > 0; warm != tc.warm {
				t.Fatalf("%s: warm start restored %d entries, want a warm start = %v", tc.name, s2.CacheLen(), tc.warm)
			}
			var st statsResponse
			getJSON(t, url2+"/v1/stats", &st)
			errs := st.SnapErrors
			if st.Shards != nil {
				errs += st.Shards.SnapshotErrors
			}
			if counted := errs > 0; counted == tc.warm {
				t.Fatalf("%s: %d snapshot errors counted after a warm start = %v", tc.name, errs, tc.warm)
			}
			if got, want := embed(url2), cold(tc.boot, tc.params); !bytes.Equal(got, want) {
				t.Fatalf("%s: warm-started body differs from a cold server's\n got %s\nwant %s", tc.name, got, want)
			}
		}
	})
}

// TestServeWarmStartColdOnMissingAndCorrupt: the serving process must
// boot either way — missing snapshot, garbage file, or a bit-flipped
// real snapshot all mean a logged cold start, never an exit or a
// half-loaded cache.
func TestServeWarmStartColdOnMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()

	s, ts := testServer(t)
	warmCache(t, s, ts.URL)
	valid := filepath.Join(dir, "valid.bin")
	if err := s.Engine().SaveCaches(valid); err != nil {
		t.Fatal(err)
	}
	flipped := filepath.Join(dir, "flipped.bin")
	data, err := os.ReadFile(valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipBit(flipped, int64(len(data))*4); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.bin")
	if err := os.WriteFile(garbage, []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, path string
	}{
		{"missing", filepath.Join(dir, "nope.bin")},
		{"garbage", garbage},
		{"bit-flipped", flipped},
	} {
		s2, ts2 := testServer(t)
		ingest(t, ts2.URL, snapshotEdges())
		logged := 0
		s2.WarmStart(tc.path, func(string, ...any) { logged++ })
		if s2.Engine().CacheLen() != 0 {
			t.Fatalf("%s: cache not cold after failed warm start (%d entries)", tc.name, s2.Engine().CacheLen())
		}
		if logged == 0 {
			t.Fatalf("%s: cold start not logged", tc.name)
		}
	}
}

func TestServeStartSnapshotsWritesLoadableSnapshot(t *testing.T) {
	s, ts := testServer(t)
	warmCache(t, s, ts.URL)
	path := filepath.Join(t.TempDir(), "cache.bin")
	stop := s.StartSnapshots(path, 5*time.Millisecond, nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.snapshotSaves.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot written within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent

	s2, ts2 := testServer(t)
	ingest(t, ts2.URL, snapshotEdges())
	if err := s2.Engine().LoadCaches(path); err != nil {
		t.Fatalf("background snapshot not loadable: %v", err)
	}
	if s2.Engine().CacheLen() == 0 {
		t.Fatal("background snapshot restored nothing")
	}

	// Counters surface in /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Snapshots < 1 {
		t.Fatalf("stats snapshots = %d, want >= 1", st.Snapshots)
	}
}

// TestServeSnapshotsDuringIngest races the background snapshotter
// against live ingestion and embedding: every snapshot the ticker
// writes must stay fully loadable (the per-shard counts are taken
// under the shard locks).
func TestServeSnapshotsDuringIngest(t *testing.T) {
	s, ts := testServer(t)
	path := filepath.Join(t.TempDir(), "cache.bin")
	stop := s.StartSnapshots(path, time.Millisecond, func(f string, a ...any) {
		t.Errorf("snapshot failure: "+f, a...)
	})
	edges := snapshotEdges()
	for i, e := range edges {
		ingest(t, ts.URL, []edgeJSON{e})
		post(t, ts.URL+"/v1/embed", embedRequest{
			Nodes: []int32{e.Src, e.Dst}, Times: []float64{e.Time + 1, e.Time + 1},
		})
		if i%8 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	stop()
	if s.snapshotSaves.Load() == 0 {
		t.Skip("no snapshot fired during the run")
	}
	s2, ts2 := testServer(t)
	ingest(t, ts2.URL, edges)
	if err := s2.Engine().LoadCaches(path); err != nil {
		t.Fatalf("snapshot taken during ingest not loadable: %v", err)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

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
// byte for byte what a cold server over the same graph answers, when
// the graph it boots on lost an edge the saver held (the snapshot's
// watermark is past its clock: a refused, cold start) and when it
// gained one past the saved watermark (the load replays it).
func TestServeWarmStartMatchesColdServer(t *testing.T) {
	base := snapshotEdges()
	withExtra := append(slices.Clone(base), edgeJSON{Src: 1, Dst: 12, Time: 4500, Idx: int32(len(base) + 1)})
	req := embedRequest{Nodes: []int32{1, 2, 11}, Times: []float64{5000, 5000, 5000}}
	forEachBackend(t, func(t *testing.T, _ backendMode, mk func(string) (*Server, *httptest.Server)) {
		embed := func(url string) []byte {
			t.Helper()
			body, code, err := postBody(url, "/v1/embed", req)
			if err != nil || code != 200 {
				t.Fatalf("embed: code %d err %v (%s)", code, err, body)
			}
			return body
		}
		cold := func(edges []edgeJSON) []byte {
			_, ts := mk("")
			ingest(t, ts.URL, edges)
			return embed(ts.URL)
		}
		if bytes.Equal(cold(base), cold(withExtra)) {
			t.Fatal("the extra edge changes no asked row: the cases test nothing")
		}
		for _, tc := range []struct {
			name        string
			saved, boot []edgeJSON
			warm        bool
		}{
			{"lost-edge", withExtra, base, false},
			{"gained-edge", base, withExtra, true},
		} {
			path := filepath.Join(t.TempDir(), "cache.bin")
			s, ts := mk(path)
			ingest(t, ts.URL, tc.saved)
			embed(ts.URL)
			if err := s.SaveSnapshot(path); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := mk(path)
			ingest(t, ts2.URL, tc.boot)
			s2.WarmStart(path, nil)
			if warm := s2.CacheLen() > 0; warm != tc.warm {
				t.Fatalf("%s: warm start restored %d entries, want a warm start = %v", tc.name, s2.CacheLen(), tc.warm)
			}
			if got, want := embed(ts2.URL), cold(tc.boot); !bytes.Equal(got, want) {
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

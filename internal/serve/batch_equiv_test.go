package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tgopt/internal/core"
	"tgopt/internal/graph"
)

// engineBackend answers each request with a pass of its own over an
// uncached engine, on the caller: the reference the batched path is
// held to. Writes reach the backend it wraps.
type engineBackend struct {
	backend
	eng *core.Engine
}

func (b engineBackend) EmbedRows(_ context.Context, nodes []int32, ts []float64) ([]float32, []int, error) {
	return b.eng.Embed(nodes, ts).Data()[:len(nodes)*b.eng.Dim()], nil, nil
}

// batchedAndSerialServers builds two servers with identical weights and
// history: one whose handlers read an uncached engine, request by
// request, and one serving through its batcher.
func batchedAndSerialServers(t *testing.T) (off, on *httptest.Server) {
	t.Helper()
	ref, off := testServer(t)
	p := *ref.cur.Load()
	sampler := graph.NewDynamicSampler(ref.dyn, p.model.Cfg.NumNeighbors, graph.MostRecent, 0)
	p.backend = engineBackend{backend: p.backend, eng: core.NewEngine(p.model, sampler, core.Options{})}
	ref.cur.Store(&p)
	_, on = testServer(t)
	edges := []edgeJSON{
		{Src: 1, Dst: 2, Time: 10}, {Src: 1, Dst: 3, Time: 20},
		{Src: 2, Dst: 4, Time: 30}, {Src: 3, Dst: 5, Time: 40},
		{Src: 4, Dst: 6, Time: 50}, {Src: 5, Dst: 7, Time: 60},
		{Src: 6, Dst: 8, Time: 70}, {Src: 7, Dst: 1, Time: 80},
	}
	ingest(t, off.URL, edges)
	ingest(t, on.URL, edges)
	return off, on
}

// equivRequest is one request of the equivalence workload.
type equivRequest struct {
	path string
	body any
}

// equivWorkload builds a mixed embed/score request set with heavy
// target overlap across requests — the redundancy the batcher fuses.
func equivWorkload() []equivRequest {
	var reqs []equivRequest
	for i := 0; i < 24; i++ {
		n1 := int32(1 + i%8)
		n2 := int32(1 + (i+3)%8)
		ts := float64(90 + (i%4)*5)
		if i%3 == 0 {
			reqs = append(reqs, equivRequest{"/v1/score", scoreRequest{
				Pairs: []edgeJSON{{Src: n1, Dst: n2, Time: ts}},
			}})
		} else {
			reqs = append(reqs, equivRequest{"/v1/embed", embedRequest{
				Nodes: []int32{n1, n2}, Times: []float64{ts, ts},
			}})
		}
	}
	return reqs
}

func postBody(url, path string, body any) ([]byte, int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes(), resp.StatusCode, nil
}

// TestServeBatchedEquivalence is the correctness acceptance test for
// cross-request batching: N concurrent batched requests must return
// bitwise-identical bodies to the same requests answered one by one by
// an uncached engine. Run under -race in scripts/check.sh.
func TestServeBatchedEquivalence(t *testing.T) {
	off, on := batchedAndSerialServers(t)
	reqs := equivWorkload()

	// Ground truth: the engine, one request at a time.
	want := make([][]byte, len(reqs))
	for i, rq := range reqs {
		body, code, err := postBody(off.URL, rq.path, rq.body)
		if err != nil || code != 200 {
			t.Fatalf("serial request %d: code %d err %v", i, code, err)
		}
		want[i] = body
	}

	// The same requests, concurrently, through the batcher — several
	// full passes over the workload so fused batches mix requests.
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(reqs))
	for round := 0; round < rounds; round++ {
		for i, rq := range reqs {
			i, rq := i, rq
			wg.Add(1)
			go func() {
				defer wg.Done()
				body, code, err := postBody(on.URL, rq.path, rq.body)
				if err != nil || code != 200 {
					errs <- fmt.Errorf("batched request %d: code %d err %v", i, code, err)
					return
				}
				if !bytes.Equal(body, want[i]) {
					errs <- fmt.Errorf("request %d (%s): batched body differs from serial\nbatched: %s\nserial:  %s",
						i, rq.path, body, want[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The batcher must actually have run under this workload.
	resp, err := http.Get(on.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Batching.Enqueued == 0 || sr.Batching.Batches == 0 {
		t.Fatalf("batcher unused: %+v", sr.Batching)
	}
}

// TestServeBatchedCancellation cancels requests mid-batch and checks
// that sibling requests sharing the fused pass still complete correctly
// and the server keeps serving — no stuck waiters.
func TestServeBatchedCancellation(t *testing.T) {
	off, on := batchedAndSerialServers(t)

	embedBody, _ := json.Marshal(embedRequest{Nodes: []int32{1, 2}, Times: []float64{95, 95}})
	want, code, err := postBody(off.URL, "/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{95, 95}})
	if err != nil || code != 200 {
		t.Fatalf("serial: %d %v", code, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				// Cancel mid-flight: accept either a transport error or
				// any status — the point is the sibling requests below.
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5)*100*time.Microsecond)
				defer cancel()
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, on.URL+"/v1/embed", bytes.NewReader(embedBody))
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				return
			}
			body, code, err := postBody(on.URL, "/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{95, 95}})
			if err != nil || code != 200 {
				errs <- fmt.Errorf("sibling request: code %d err %v", code, err)
				return
			}
			if !bytes.Equal(body, want) {
				errs <- fmt.Errorf("sibling of a cancelled request got a different body")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The server must still serve fresh work after the cancellations.
	body, code, err := postBody(on.URL, "/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{95, 95}})
	if err != nil || code != 200 || !bytes.Equal(body, want) {
		t.Fatalf("post-cancellation request broken: code %d err %v", code, err)
	}
}

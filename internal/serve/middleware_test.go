package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestServeMaxInFlightRejectsWith429(t *testing.T) {
	s, ts := testServerWith(t, func(c *Config) { c.Limits = Limits{MaxInFlight: 1} })
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})

	// Occupy the single slot directly, then drive concurrent embed
	// traffic past the limit: every request must be rejected with 429.
	s.sem <- struct{}{}
	const clients = 8
	var got429 atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := json.Marshal(embedRequest{Nodes: []int32{1}, Times: []float64{5}})
			resp, err := http.Post(ts.URL+"/v1/embed", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("status %d, want 429", resp.StatusCode)
				return
			}
			if resp.Header.Get("Retry-After") == "" {
				errs <- fmt.Errorf("429 missing Retry-After")
				return
			}
			got429.Add(1)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got429.Load() != clients {
		t.Fatalf("saw %d rejections, want %d", got429.Load(), clients)
	}

	// Observability stays reachable while saturated (stats/metrics are
	// exempt from the limit) and reports the rejections.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Rejected != clients {
		t.Fatalf("stats rejected = %d, want %d", sr.Rejected, clients)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), fmt.Sprintf("tgopt_rejected_total %d", clients)) {
		t.Fatalf("metrics missing rejected counter:\n%s", buf.String())
	}

	// Release the slot: serving resumes.
	<-s.sem
	resp2, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{5}})
	if resp2.StatusCode != 200 {
		t.Fatalf("post-release embed: %d %s", resp2.StatusCode, body)
	}
}

func TestServeTimeoutReturns504(t *testing.T) {
	s, _ := testServerWith(t, func(c *Config) { c.Limits = Limits{Timeout: 30 * time.Millisecond} })
	var sawDeadline atomic.Bool
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); ok {
			sawDeadline.Store(true)
		}
		<-r.Context().Done() // block until the middleware's deadline fires
	})
	ts := httptest.NewServer(s.wrap(slow))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/embed")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("504 body not clean JSON: %v", err)
	}
	if !strings.Contains(body["error"], "deadline") {
		t.Fatalf("504 error = %q", body["error"])
	}
	if !sawDeadline.Load() {
		t.Fatal("handler saw no context deadline")
	}
	if s.timeouts.Load() != 1 {
		t.Fatalf("timeouts counter = %d, want 1", s.timeouts.Load())
	}
}

func TestServeTimeoutFastRequestUnaffected(t *testing.T) {
	s, ts := testServerWith(t, func(c *Config) { c.Limits = Limits{Timeout: 5 * time.Second, MaxInFlight: 4} })
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})
	resp, body := post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{5}})
	if resp.StatusCode != 200 {
		t.Fatalf("embed under limits: %d %s", resp.StatusCode, body)
	}
	var er embedResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Embeddings) != 1 {
		t.Fatalf("embedding count %d", len(er.Embeddings))
	}
	if s.timeouts.Load() != 0 || s.rejected.Load() != 0 {
		t.Fatal("fast request tripped a limit counter")
	}
}

func TestServePanicRecoveredTo500(t *testing.T) {
	log.SetOutput(&bytes.Buffer{}) // silence the recovery stack trace
	defer log.SetOutput(nil)
	for _, timeout := range []time.Duration{0, time.Second} {
		s, _ := testServerWith(t, func(c *Config) { c.Limits = Limits{Timeout: timeout} })
		boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("partial output before the panic"))
			panic("handler boom")
		})
		ts := httptest.NewServer(s.wrap(boom))
		resp, err := http.Get(ts.URL + "/v1/anything")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("timeout=%v: status %d, want 500", timeout, resp.StatusCode)
		}
		// Both paths buffer handler output, so the partial body written
		// before the panic is discarded: the 500 is clean JSON with no
		// handler output interleaved.
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body["error"] != "internal error" {
			t.Fatalf("timeout=%v: 500 body corrupt: %v %v", timeout, body, err)
		}
		if s.panics.Load() != 1 {
			t.Fatalf("timeout=%v: panics counter = %d, want 1", timeout, s.panics.Load())
		}
		// The server keeps serving after a panic.
		resp2, err := http.Get(ts.URL + "/v1/anything")
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if s.inflight.Load() != 0 {
			t.Fatalf("timeout=%v: inflight gauge stuck at %d", timeout, s.inflight.Load())
		}
		ts.Close()
	}
}

func TestServeMetricsIncludesStageSummaries(t *testing.T) {
	_, ts := testServer(t)
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}, {Src: 2, Dst: 3, Time: 2}})
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1, 2}, Times: []float64{5, 5}})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		`tgopt_stage_latency_seconds{stage="sample",quantile="0.5"}`,
		`tgopt_stage_latency_seconds{stage="attention",quantile="0.99"}`,
		`tgopt_stage_latency_seconds_sum{stage="time_encode"}`,
		`tgopt_stage_latency_seconds_count{stage="cache_lookup"}`,
		"tgopt_inflight_requests",
		"tgopt_timeouts_total 0",
		"tgopt_panics_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
	// The embed above must have produced nonzero attention observations.
	var count int64
	if _, err := fmt.Sscanf(afterLine(body, `tgopt_stage_latency_seconds_count{stage="attention"}`), "%d", &count); err != nil || count == 0 {
		t.Fatalf("attention stage count = %d (err %v)", count, err)
	}
}

// afterLine returns the remainder of the first line starting with prefix.
func afterLine(body, prefix string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(line, prefix))
		}
	}
	return ""
}

func TestServeStatsIncludesStageAndLimitFields(t *testing.T) {
	_, ts := testServerWith(t, func(c *Config) { c.Limits = Limits{Timeout: time.Minute, MaxInFlight: 8} })
	ingest(t, ts.URL, []edgeJSON{{Src: 1, Dst: 2, Time: 1}})
	post(t, ts.URL+"/v1/embed", embedRequest{Nodes: []int32{1}, Times: []float64{5}})
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Stages) == 0 {
		t.Fatal("stats missing stages")
	}
	att, ok := sr.Stages["attention"]
	if !ok || att.Count == 0 {
		t.Fatalf("attention stage absent or empty: %+v", sr.Stages)
	}
	if att.P99us < att.P50us {
		t.Fatalf("stage quantiles inconsistent: %+v", att)
	}
	if sr.InFlight < 0 || sr.Rejected != 0 || sr.Timeouts != 0 || sr.Panics != 0 {
		t.Fatalf("limit counters wrong: %+v", sr)
	}
}

func TestServeIngestCountsAcceptedPrefix(t *testing.T) {
	s, ts := testServer(t)
	// Two good edges, then an invalid endpoint: the request fails with
	// 400 but the accepted prefix is in the graph and must be counted.
	// (A mere time regression no longer fails the request — it is
	// dropped against the watermark and counted, see
	// TestServeIngestDropsTimeRegression.)
	resp, body := post(t, ts.URL+"/v1/ingest", ingestRequest{Edges: []edgeJSON{
		{Src: 1, Dst: 2, Time: 100},
		{Src: 2, Dst: 3, Time: 200},
		{Src: 0, Dst: 4, Time: 300}, // invalid endpoint: rejected
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial ingest status %d: %s", resp.StatusCode, body)
	}
	if s.dyn.NumEdges() != 2 {
		t.Fatalf("graph has %d edges, want the 2-edge prefix", s.dyn.NumEdges())
	}
	if s.ingested.Load() != 2 {
		t.Fatalf("ingested counter = %d, want 2 (the accepted prefix)", s.ingested.Load())
	}
}

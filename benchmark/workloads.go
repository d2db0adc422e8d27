package main

import (
	"fmt"

	"tgopt/internal/tgat"
)

// The model is the same in every workload unless the table says
// otherwise: 2 heads, L = 2, K = 10, batch 200, core.OptAll(), float32.
// The width is 32, not the 64 the issue first named: cost grows with
// the square of the width, and at 64 a cold 200-edge batch takes 350 ms
// on this box, which leaves too few latency samples inside the run
// length the driver's time cap allows (see README, "Sizing").
const (
	modelDim   = 32
	modelHeads = 2
	batchEdges = 200 // the paper's inference batch (Fig. 5)

	embedTargets = 16 // targets per /v1/embed request
	scorePairs   = 8  // pairs per /v1/score request: the same 16 targets
	ingestEdges  = 32 // edges per /v1/ingest request
	poolTargets  = 512
	nowEvery     = 64 // requests between steps of the shared "now"

	checkTargets   = 256 // rows recomputed with the unoptimised model
	recordEvery    = 8   // every 8th op's inputs feed the leaf probes
	setupRepeats   = 3   // set-ups per run; setup_s is their median
	defaultSeconds = 12  // run_seconds in BENCHMARK.json
)

// workload is one row of the workload table. Op counts are constants
// frozen after one calibration on the reference box: measured work is a
// fixed number of operations derived from --seconds, never a duration,
// so two runs of one seed do the same work whatever the host's speed.
type workload struct {
	Name string
	Why  string

	Serving bool
	Dataset string
	Scale   float64
	Layers  int
	K       int
	// CacheLimit caps the memo cache; 0 keeps the engine's default,
	// which holds the whole working set at these scales.
	CacheLimit int
	// Shards > 0 serves through serve.NewSharded; 0 through serve.New
	// with cross-request batching on.
	Shards int
	// Ingest interleaves /v1/ingest requests 1:4 with the read mix and
	// turns the lateness window on.
	Ingest bool

	// WarmFrac is the share of a stream replayed in set-up. WarmOps is
	// the number of serving requests replayed in set-up.
	WarmFrac float64
	WarmOps  int
	// ClosedPerSec and OpenPerSec are measured ops per second of
	// --seconds: stream batches, or closed-loop (phase A) and open-loop
	// (phase B) requests.
	ClosedPerSec float64
	OpenPerSec   float64
	// ProbeOps is the number of extra requests the traced run sends
	// through the four entry depths.
	ProbeOps int
	// LatLimitMs is the latency limit behind slo_miss_frac: four times
	// the workload's calibrated lat_p50_ms, frozen here.
	LatLimitMs float64
}

// workloads is the full table; smokeWorkloads the one bench_test.go
// runs under `go test ./...`.
var workloads = []workload{
	{
		Name:    "stream-reuse",
		Why:     "the paper's task on a repetitive stream, 240 batches of 200 edges: memo hit ratio ~0.75, so dedup, key hashing, cache and time-table lookups do the work; every redundancy optimisation must win here",
		Dataset: "jodie-reddit", Scale: 0.10, Layers: 2, K: 10,
		WarmFrac: 0.2, ClosedPerSec: 20, LatLimitMs: 115,
	},
	{
		Name:    "stream-cold",
		Why:     "same driver, 150 batches, little repetition, cache capped at 4000 entries: hit ratio ~0.2, so sampling, attention, kernels and cache store/evict do the work; a lookup-path gain shows nothing here",
		Dataset: "snap-reddit", Scale: 0.05, Layers: 2, K: 10, CacheLimit: 4000,
		WarmFrac: 0.2, ClosedPerSec: 12.5, LatLimitMs: 220,
	},
	{
		Name:    "serve-read",
		Why:     "read-only HTTP serving with batching, 4800 closed-loop then 4032 open-loop requests at half that rate: the engine mostly hits, so JSON codec, middleware, batcher and transport carry the request",
		Serving: true, Dataset: "jodie-wiki", Scale: 0.3, Layers: 2, K: 10,
		WarmOps: 1280, ClosedPerSec: 400, OpenPerSec: 336, ProbeOps: 640, LatLimitMs: 5.6,
	},
	{
		Name:    "serve-ingest",
		Why:     "2 shards, L=3, 3072+2688 requests, one in five an ingest with late edges: appends, invalidation and replica fan-out beside reads, so a read gain that slows writes shows; the only router-path workload",
		Serving: true, Dataset: "jodie-wiki", Scale: 0.8, Layers: 3, K: 5, Shards: 2, Ingest: true,
		WarmOps: 640, ClosedPerSec: 256, OpenPerSec: 224, ProbeOps: 640, LatLimitMs: 8,
	},
}

var smokeWorkloads = []workload{
	{
		Name: "stream-reuse", Dataset: "jodie-reddit", Scale: 0.004, Layers: 2, K: 5,
		WarmFrac: 0.2, ClosedPerSec: 9, LatLimitMs: 5000,
	},
	{
		Name: "stream-cold", Dataset: "snap-reddit", Scale: 0.003, Layers: 2, K: 5, CacheLimit: 200,
		WarmFrac: 0.2, ClosedPerSec: 9, LatLimitMs: 5000,
	},
	{
		Name: "serve-read", Serving: true, Dataset: "jodie-wiki", Scale: 0.02, Layers: 2, K: 5,
		WarmOps: 16, ClosedPerSec: 64, OpenPerSec: 64, ProbeOps: 32, LatLimitMs: 5000,
	},
	{
		Name: "serve-ingest", Serving: true, Dataset: "jodie-wiki", Scale: 0.02, Layers: 3, K: 5, Shards: 2, Ingest: true,
		WarmOps: 10, ClosedPerSec: 64, OpenPerSec: 30, ProbeOps: 20, LatLimitMs: 5000,
	},
}

// runConfig is what one workload run is asked to do.
type runConfig struct {
	Seed    uint64
	Seconds int
	Trace   bool
	// Smoke selects smokeWorkloads, one set-up and one second's worth of
	// ops: enough to exercise every path inside `go test`.
	Smoke bool
}

// setups is how many times a run sets up: setup_s is the median. The
// traced run reports no setup_s, and the smoke run is about coverage.
func (c runConfig) setups() int {
	if c.Smoke || c.Trace {
		return 1
	}
	return setupRepeats
}

func findWorkload(name string, smoke bool) (*workload, error) {
	table := workloads
	if smoke {
		table = smokeWorkloads
	}
	for i := range table {
		if table[i].Name == name {
			return &table[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) modelConfig() tgat.Config {
	return tgat.Config{
		Layers: w.Layers, Heads: modelHeads,
		NodeDim: modelDim, EdgeDim: modelDim, TimeDim: modelDim,
		NumNeighbors: w.K, Seed: 1,
	}
}

// opCount scales a per-second constant by the run length.
func opCount(perSec float64, seconds int) int {
	n := int(perSec * float64(seconds))
	if n < 1 {
		n = 1
	}
	return n
}

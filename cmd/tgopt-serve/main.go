// tgopt-serve runs the HTTP inference service: a TGOpt engine over a
// live dynamic graph, accepting streaming edge ingestion and serving
// memoized temporal embeddings and link scores.
//
//	tgopt-serve -d jodie-wiki --scale 0.004 --addr :8080
//	curl -X POST localhost:8080/v1/score \
//	     -d '{"pairs":[{"src":1,"dst":2,"time":1e6}]}'
//
// By default the synthetic dataset's history is pre-ingested so the
// service starts warm; --empty starts with a bare graph (grow it with
// /v1/ingest). Requests are bounded by --timeout (504 on expiry) and
// --max-inflight (429 at saturation), and SIGINT/SIGTERM drains
// in-flight requests via http.Server.Shutdown before saving the warm
// cache and exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tgopt/internal/batcher"
	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/experiments"
	"tgopt/internal/graph"
	"tgopt/internal/serve"
	"tgopt/internal/shard"
	"tgopt/internal/swap"
	"tgopt/internal/tensor"
	"tgopt/internal/trainer"
)

func main() {
	name := flag.String("d", "jodie-wiki", "dataset to build the serving graph from")
	scale := flag.Float64("scale", 0.004, "synthetic dataset scale factor")
	dim := flag.Int("dim", 32, "feature width")
	heads := flag.Int("heads", 2, "attention heads")
	layers := flag.Int("layers", 2, "TGAT layers")
	k := flag.Int("n-degree", 10, "sampled most-recent neighbors")
	addr := flag.String("addr", ":8080", "listen address")
	empty := flag.Bool("empty", false, "start with an empty graph instead of pre-ingesting history")
	modelPath := flag.String("model", "", "load trained parameters from this checkpoint")
	cacheLimit := flag.Int("cache-limit", 0, "cache item limit (0 = 2M scaled)")
	cachePolicy := flag.String("cache-policy", "tinylfu", "cache eviction policy: tinylfu (sketch-based admission) or fifo (the paper's policy)")
	cacheFile := flag.String("cache-file", "", "warm-start file: load memoized embeddings at boot, save on SIGINT/SIGTERM")
	snapInterval := flag.Duration("snapshot-interval", 0, "background cache snapshot cadence to -cache-file (0 disables; snapshots are atomic, a crash never corrupts the file)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (0 disables; exceeded requests get 504)")
	maxInflight := flag.Int("max-inflight", 256, "max concurrently-executing requests (0 = unlimited; excess gets 429)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for draining in-flight requests")
	batchWindow := flag.Duration("batch-window", batcher.DefaultWindow, "max wait before flushing a partial cross-request batch (only applies while another fused pass is executing)")
	batchMax := flag.Int("batch-max", batcher.DefaultMaxBatch, "flush a cross-request batch at this many targets")
	batchOff := flag.Bool("batch-off", false, "disable cross-request micro-batching (each request runs its own engine pass)")
	lateness := flag.Float64("lateness", 0, "out-of-order tolerance: accept late edges within this many time units of the stream maximum (0 = strict chronological ingest; older edges are dropped against the watermark)")
	shards := flag.Int("shards", 1, "partition serving into this many fault-isolated engine shards (1 = single engine; >= 2 enables the scatter-gather router)")
	swapDir := flag.String("swap-dir", "", "online-learning swap directory (params-<version>.tgp + CURRENT manifest): load the latest published params at boot and hot-swap to new versions while serving (see DESIGN.md §15)")
	swapInterval := flag.Duration("swap-interval", 0, "swap loop cadence: poll -swap-dir (or fine-tune, with -swap-train) this often (0 disables the loop; boot-time load still happens)")
	swapTrain := flag.Bool("swap-train", false, "run the fine-tuner in-process: each -swap-interval, train a clone of the serving model on the watermarked prefix of the live stream, publish it into -swap-dir, and hot-swap to it")
	swapEpochs := flag.Int("swap-epochs", 1, "fine-tune epochs per swap tick (with -swap-train)")
	flag.Parse()

	setup := experiments.Setup{
		Scale: *scale, NodeDim: *dim, Heads: *heads, Layers: *layers,
		K: *k, TimeWindow: 10_000, Seed: 1, CacheLimit: *cacheLimit,
	}
	wl, err := experiments.LoadWorkload(*name, setup)
	if err != nil {
		fatal(err)
	}
	if *modelPath != "" {
		if err := wl.Model.LoadParams(*modelPath); err != nil {
			fatal(err)
		}
	}

	// Boot on the latest published params, if any: a restart after N
	// swaps must come back serving version N, not the boot checkpoint.
	// A corrupt published snapshot falls back to whatever -model (or
	// init) provided rather than refusing to boot.
	if *swapDir != "" {
		v, p, err := swap.Latest(checkpoint.OS{}, *swapDir)
		switch {
		case err == nil:
			if sp, perr := wl.Model.ParseParamsFS(checkpoint.OS{}, p); perr != nil {
				log.Printf("swap: published v%d unreadable (%v); serving boot params as v0", v, perr)
			} else {
				wl.Model = wl.Model.WithParams(sp, v)
				log.Printf("swap: booted on published params v%d from %s", v, *swapDir)
			}
		case errors.Is(err, fs.ErrNotExist):
			// Nothing published yet; first publish will hot-swap in.
		default:
			log.Printf("swap: manifest read: %v; serving boot params as v0", err)
		}
	}

	dyn := graph.NewDynamic(wl.DS.Graph.NumNodes())
	if *lateness > 0 {
		dyn.SetLateness(*lateness)
	}
	if !*empty {
		for _, e := range wl.DS.Graph.Edges() {
			if _, err := dyn.Append(e); err != nil {
				fatal(err)
			}
		}
	}

	opt := core.OptAll()
	opt.CacheLimit = setup.EffectiveCacheLimit()
	switch *cachePolicy {
	case "tinylfu":
		opt.CachePolicy = core.CacheTinyLFU
	case "fifo":
		opt.CachePolicy = core.CacheFIFO
	default:
		fatal(fmt.Errorf("unknown -cache-policy %q (want tinylfu or fifo)", *cachePolicy))
	}
	var srv *serve.Server
	if *shards > 1 {
		// Sharded serving plane: -cache-file names the per-shard
		// snapshot DIRECTORY instead of a single snapshot file.
		srv, err = serve.NewSharded(wl.Model, dyn, opt, shard.Config{
			Shards:      *shards,
			SnapshotDir: *cacheFile,
			Logf:        log.Printf,
		})
		if err != nil {
			fatal(err)
		}
	} else {
		srv = serve.New(wl.Model, dyn, opt)
	}
	if !*batchOff {
		srv.SetBatching(batcher.Config{Window: *batchWindow, MaxBatch: *batchMax}) // per shard when sharded
	}
	srv.SetLimits(serve.Limits{Timeout: *timeout, MaxInFlight: *maxInflight})

	// A missing or corrupt warm cache must never stop the service from
	// booting: WarmStart logs the cold start and continues.
	if *cacheFile != "" {
		srv.WarmStart(*cacheFile, log.Printf)
	}
	srv.SetReady() // /readyz starts answering 200
	stopSnapshots := func() {}
	if *cacheFile != "" && *snapInterval > 0 {
		stopSnapshots = srv.StartSnapshots(*cacheFile, *snapInterval, log.Printf)
		log.Printf("snapshotting cache to %s every %s", *cacheFile, *snapInterval)
	}
	stopSwaps := func() {}
	if *swapDir != "" && *swapInterval > 0 {
		tcfg := trainer.DefaultConfig()
		tcfg.Epochs = *swapEpochs
		stopSwaps = srv.StartSwapLoop(serve.SwapConfig{
			Dir:      *swapDir,
			Interval: *swapInterval,
			Train:    *swapTrain,
			Trainer:  tcfg,
			Logf:     log.Printf,
		})
		if *swapTrain {
			log.Printf("swap: fine-tune + publish + hot-swap every %s into %s (%d epochs/tick)", *swapInterval, *swapDir, *swapEpochs)
		} else {
			log.Printf("swap: watching %s for published params every %s", *swapDir, *swapInterval)
		}
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests (bounded by --grace), then persist the
	// warm cache. ListenAndServe returns ErrServerClosed as soon as
	// Shutdown starts, so drain completion is signalled separately.
	drained := make(chan struct{})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		srv.BeginDrain() // /readyz flips to 503 so load balancers stop routing here
		log.Printf("shutting down: draining in-flight requests (grace %s)", *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		close(drained)
	}()

	log.Printf("tgopt-serve: %s (%d nodes, %d edges pre-ingested) listening on %s",
		*name, dyn.NumNodes(), dyn.NumEdges(), *addr)
	log.Printf("limits: timeout=%s max-inflight=%d", *timeout, *maxInflight)
	if *lateness > 0 {
		log.Printf("out-of-order ingest: lateness window %g (late edges sorted-insert + selective cache invalidation)", *lateness)
	} else {
		log.Printf("out-of-order ingest: off (out-of-order edges are dropped against the watermark)")
	}
	log.Printf("kernels: %s", tensor.Kernels())
	if *batchOff {
		log.Printf("cross-request batching: off")
	} else {
		log.Printf("cross-request batching: window=%s max=%d", *batchWindow, *batchMax)
	}
	if srv.Sharded() {
		log.Printf("sharding: %d shards", *shards)
		log.Printf("cache: policy=%s per-shard (divided from limit %d)", *cachePolicy, opt.CacheLimit)
	} else {
		log.Printf("cache: policy=%s limit=%d", *cachePolicy, srv.Engine().Options().CacheLimit)
	}
	log.Printf("endpoints: POST /v1/ingest /v1/embed /v1/score /v1/explain, GET /v1/stats /metrics /healthz /readyz")
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained

	stopSwaps()     // no swap may land between drain and the final save
	stopSnapshots() // quiesce the snapshotter before the final save
	if *cacheFile != "" {
		if err := srv.SaveSnapshot(*cacheFile); err != nil {
			log.Printf("cache save failed: %v", err)
		} else {
			log.Printf("saved %d memoized embeddings to %s", srv.CacheLen(), *cacheFile)
		}
	}
	log.Printf("tgopt-serve: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-serve:", err)
	os.Exit(1)
}

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
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/experiments"
	"tgopt/internal/graph"
	"tgopt/internal/serve"
	"tgopt/internal/swap"
	"tgopt/internal/tensor"
)

func main() {
	cfg := serve.DefaultConfig()
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
	flag.TextVar(&cfg.Engine.CachePolicy, "cache-policy", cfg.Engine.CachePolicy, "cache eviction policy: clock (second-chance FIFO: a row hit since it was queued is kept once more) or fifo (the paper's policy)")
	flag.StringVar(&cfg.CacheFile, "cache-file", cfg.CacheFile, "warm-start file: load memoized embeddings at boot, save on SIGINT/SIGTERM")
	flag.DurationVar(&cfg.SnapshotInterval, "snapshot-interval", cfg.SnapshotInterval, "background cache snapshot cadence to -cache-file (0 disables; snapshots are atomic, a crash never corrupts the file)")
	flag.DurationVar(&cfg.Limits.Timeout, "timeout", cfg.Limits.Timeout, "per-request deadline (0 disables; exceeded requests get 504)")
	flag.IntVar(&cfg.Limits.MaxInFlight, "max-inflight", cfg.Limits.MaxInFlight, "max concurrently-executing requests (0 = unlimited; excess gets 429)")
	grace := flag.Duration("grace", 10*time.Second, "shutdown grace period for draining in-flight requests")
	lateness := flag.Float64("lateness", 0, "out-of-order tolerance: accept late edges within this many time units of the stream maximum (0 = strict chronological ingest; older edges are dropped against the watermark)")
	flag.IntVar(&cfg.Shards, "shards", cfg.Shards, "partition serving into this many fault-isolated engine shards (1 = single engine; >= 2 enables the scatter-gather router)")
	flag.StringVar(&cfg.Swap.Dir, "swap-dir", cfg.Swap.Dir, "online-learning swap directory (params-<version>.tgp + CURRENT manifest): load the latest published params at boot and hot-swap to new versions while serving (see DESIGN.md §15)")
	flag.DurationVar(&cfg.Swap.Interval, "swap-interval", cfg.Swap.Interval, "swap loop cadence: poll -swap-dir (or fine-tune, with -swap-train) this often (0 disables the loop; boot-time load still happens)")
	flag.BoolVar(&cfg.Swap.Train, "swap-train", cfg.Swap.Train, "run the fine-tuner in-process: each -swap-interval, train a clone of the serving model on the watermarked prefix of the live stream, publish it into -swap-dir, and hot-swap to it")
	flag.IntVar(&cfg.Swap.Trainer.Epochs, "swap-epochs", cfg.Swap.Trainer.Epochs, "fine-tune epochs per swap tick (with -swap-train)")
	flag.Parse()

	setup := experiments.Setup{
		Scale: *scale, NodeDim: *dim, Heads: *heads, Layers: *layers,
		K: *k, TimeWindow: cfg.Engine.TimeWindow, Seed: 1, CacheLimit: *cacheLimit,
	}
	cfg.Engine.CacheLimit = *cacheLimit
	if *cacheLimit == 0 {
		cfg.Engine.CacheLimit = setup.EffectiveCacheLimit()
	}
	cfg.Logf = log.Printf
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	if *lateness < 0 || math.IsNaN(*lateness) || math.IsInf(*lateness, 0) {
		fatal(fmt.Errorf("-lateness = %g: want finite and >= 0", *lateness))
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
	if cfg.Swap.Dir != "" {
		v, p, err := swap.Latest(checkpoint.OS{}, cfg.Swap.Dir)
		switch {
		case err == nil:
			if sp, perr := wl.Model.ParseParamsFS(checkpoint.OS{}, p); perr != nil {
				log.Printf("swap: published v%d unreadable (%v); serving boot params as v0", v, perr)
			} else {
				wl.Model = wl.Model.WithParams(sp, v)
				log.Printf("swap: booted on published params v%d from %s", v, cfg.Swap.Dir)
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

	srv, err := serve.NewFromConfig(wl.Model, dyn, cfg)
	if err != nil {
		fatal(err)
	}
	stop := srv.Start() // a missing or corrupt warm cache logs a cold start, never stops the boot
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}

	log.Printf("tgopt-serve: %s (%d nodes, %d edges pre-ingested, lateness %g, kernels %s) listening on %s; config %s",
		*name, dyn.NumNodes(), dyn.NumEdges(), *lateness, tensor.Kernels(), *addr, cfg)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// drain in-flight requests (bounded by --grace), then stop the
	// server, which persists the warm cache.
	sig, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	<-sig.Done()
	srv.BeginDrain() // /readyz flips to 503 so load balancers stop routing here
	log.Printf("shutting down: draining in-flight requests (grace %s)", *grace)
	ctx, cancelGrace := context.WithTimeout(context.Background(), *grace)
	defer cancelGrace()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if err := stop(); err != nil {
		log.Printf("cache save failed: %v", err)
	}
	log.Printf("tgopt-serve: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-serve:", err)
	os.Exit(1)
}

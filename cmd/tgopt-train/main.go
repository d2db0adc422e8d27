// tgopt-train is the Go analogue of the artifact's train.py: it trains a
// TGAT model for link prediction on a (synthetic or CSV) dynamic graph
// and saves the parameters for tgopt-infer --model.
//
//	tgopt-train -d snap-msg --epochs 3 -o saved_models/snap-msg.bin
//
// With -checkpoint the run writes an atomic, checksummed training
// checkpoint (parameters, optimizer state, RNG streams, cursors) every
// -checkpoint-every batches and at epoch boundaries; after a crash,
// -resume continues from the last checkpoint with exactly the loss
// trajectory an uninterrupted run would have produced.
//
//	tgopt-train -d snap-msg -checkpoint train.ckpt -checkpoint-every 50
//	tgopt-train -d snap-msg -checkpoint train.ckpt -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"tgopt/internal/checkpoint"
	"tgopt/internal/core"
	"tgopt/internal/experiments"
	"tgopt/internal/swap"
	"tgopt/internal/trainer"
)

func main() {
	name := flag.String("d", "snap-msg", "dataset name")
	scale := flag.Float64("scale", 0.004, "synthetic dataset scale factor")
	dim := flag.Int("dim", 32, "feature width")
	heads := flag.Int("heads", 2, "attention heads")
	layers := flag.Int("layers", 2, "TGAT layers (train.py --n-layer)")
	k := flag.Int("n-degree", 10, "sampled most-recent neighbors (train.py --n-degree)")
	epochs := flag.Int("epochs", 3, "training epochs")
	batch := flag.Int("bs", 200, "batch size")
	lr := flag.Float64("lr", 1e-3, "Adam learning rate")
	frac := flag.Float64("train-frac", 0.7, "chronological train fraction")
	dropout := flag.Float64("dropout", 0.1, "training dropout probability (0 disables)")
	dedup := flag.Bool("dedup", false, "apply TGOpt deduplication inside the training forward (§7)")
	out := flag.String("o", "", "checkpoint output path (default saved_models/<dataset>.bin)")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	ckpt := flag.String("checkpoint", "", "training checkpoint path (enables crash-safe checkpointing)")
	ckptEvery := flag.Int("checkpoint-every", 0, "also checkpoint every N batches (0 = epoch boundaries only)")
	resume := flag.Bool("resume", false, "resume from -checkpoint if it exists")
	maxBatches := flag.Int("max-batches", 0, "stop cleanly after N batches, checkpointing the position (0 = run to completion)")
	swapDir := flag.String("swap-dir", "", "also publish the trained parameters into this online-learning swap directory (at the next free version); a running tgopt-serve -swap-dir picks them up and hot-swaps without a restart")
	flag.Parse()

	setup := experiments.Setup{
		Scale: *scale, BatchSize: *batch, NodeDim: *dim, Heads: *heads,
		Layers: *layers, K: *k, Seed: *seed, TimeWindow: core.DefaultTimeWindow,
	}
	wl, err := experiments.LoadWorkload(*name, setup)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training %s: %d nodes, %d edges, L=%d k=%d d=%d\n",
		*name, wl.DS.Graph.NumNodes(), wl.DS.Graph.NumEdges(), *layers, *k, *dim)

	cfg := trainer.Config{
		Epochs: *epochs, BatchSize: *batch, LR: *lr, TrainFrac: *frac, Seed: *seed,
		Dropout: *dropout, Dedup: *dedup,
		CheckpointPath: *ckpt, CheckpointEvery: *ckptEvery, Resume: *resume, MaxBatches: *maxBatches,
		Logf: func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
	}
	res, err := trainer.Train(wl.Model, wl.DS.Graph, wl.Sampler, cfg)
	if err != nil {
		fatal(err)
	}
	if res.NonFinite > 0 {
		fmt.Printf("skipped %d non-finite batches (%d rollbacks)\n", res.NonFinite, res.Rollbacks)
	}
	if res.Interrupted {
		fmt.Printf("stopped after -max-batches; resume with -checkpoint %s -resume\n", *ckpt)
		return
	}
	fmt.Printf("final loss %.4f, validation AP %.4f, accuracy %.4f\n",
		res.EpochLoss[len(res.EpochLoss)-1], res.ValAP, res.ValAcc)

	path := *out
	if path == "" {
		if err := os.MkdirAll("saved_models", 0o755); err != nil {
			fatal(err)
		}
		path = "saved_models/" + *name + ".bin"
	}
	if err := wl.Model.SaveParams(path); err != nil {
		fatal(err)
	}
	fmt.Printf("saved checkpoint to %s\n", path)

	if *swapDir != "" {
		version := uint64(1)
		if v, _, err := swap.Latest(checkpoint.OS{}, *swapDir); err == nil {
			version = v + 1
		} else if !errors.Is(err, fs.ErrNotExist) {
			fatal(fmt.Errorf("swap-dir manifest: %w", err))
		}
		if err := swap.Publish(checkpoint.OS{}, *swapDir, wl.Model, version); err != nil {
			fatal(err)
		}
		fmt.Printf("published params v%d to %s (servers watching it will hot-swap)\n", version, *swapDir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tgopt-train:", err)
	os.Exit(1)
}

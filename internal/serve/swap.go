package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/swap"
	"tgopt/internal/trainer"
)

// This file is the serving side of the online-learning loop (DESIGN.md
// §16): SwapParams atomically hot-swaps the model to a published
// parameter snapshot, and StartSwapLoop runs the background cadence —
// either fine-tuning locally and publishing, or watching a swap
// directory another process publishes into.

// modelStats is the /v1/stats "model" section.
type modelStats struct {
	Version      uint64 `json:"version"`
	Swaps        int64  `json:"swaps"`
	Rollbacks    int64  `json:"rollbacks"`
	LastSwapUnix int64  `json:"last_swap_unix"`
}

func (s *Server) modelStatsJSON() modelStats {
	return modelStats{
		Version:      s.model.Version(),
		Swaps:        s.swaps.Load(),
		Rollbacks:    s.rollbacks.Load(),
		LastSwapUnix: s.lastSwapUnix.Load(),
	}
}

// SwapParams atomically swaps the serving model to the params
// checkpoint at path, as the given version. Parse-then-commit: the
// checkpoint is parsed and fully validated (envelope CRC, tensor count,
// every shape) once, into the model every core shares, with nothing
// locked and traffic flowing, so a corrupt or torn snapshot rolls back
// trivially — nothing was mutated, the previous version keeps serving,
// and the attempt is counted in rollbacks. Only the commit runs under
// the server's request gate (no in-flight embed/score/ingest/explain
// straddles it) plus the backend's barriers underneath, and re-derives
// every params-dependent structure: precomputed time tables and the
// memo caches.
//
// fsys is the file system path is read through (nil: checkpoint.OS);
// fault tests inject faultfs.
func (s *Server) SwapParams(fsys checkpoint.FS, path string, version uint64) error {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	sp, err := s.model.ParseParamsFS(fsys, path)
	if err != nil {
		s.rollbacks.Add(1)
		return fmt.Errorf("serve: swap to v%d rejected, serving v%d unchanged: %w",
			version, s.model.Version(), err)
	}
	s.swapGate.Lock()
	s.backend.CommitSwap(sp, version)
	s.swapGate.Unlock()
	s.swaps.Add(1)
	s.lastSwapUnix.Store(time.Now().Unix())
	return nil
}

// SwapConfig configures the background swap loop.
type SwapConfig struct {
	// Dir is the swap directory (params-<version>.tgp + CURRENT).
	Dir string
	// Interval is the tick cadence (must be > 0).
	Interval time.Duration
	// FS overrides the swap-directory file system (default
	// checkpoint.OS); fault tests inject faultfs.
	FS checkpoint.FS
	// Train selects the loop's role. True: fine-tune a clone of the
	// serving model on the watermarked prefix of the live stream each
	// tick, publish it into Dir, and swap to it. False: watch Dir's
	// CURRENT manifest and swap whenever another process (tgopt-train
	// -swap-dir, or a training-mode server) publishes a new version.
	Train bool
	// Trainer configures the fine-tune when Train is set.
	Trainer trainer.Config
	// Logf receives swap events. Optional.
	Logf func(format string, args ...any)
}

// StartSwapLoop runs the online-learning loop in the background and
// returns a stop function that quiesces it (waiting out an in-progress
// tick). Every tick failure is logged and non-fatal: a fine-tune that
// cannot run (stream too short), a publish that cannot land, or a swap
// rejected on a corrupt snapshot all leave the current version serving.
func (s *Server) StartSwapLoop(cfg SwapConfig) (stop func()) {
	if cfg.FS == nil {
		cfg.FS = checkpoint.OS{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return every(cfg.Interval, func() { s.swapTick(cfg) })
}

// swapTick is one loop iteration: train-publish-swap, or poll-swap.
func (s *Server) swapTick(cfg SwapConfig) {
	if !cfg.Train {
		v, path, err := swap.Latest(cfg.FS, cfg.Dir)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				cfg.Logf("swap: manifest read: %v", err)
			}
			return // nothing published yet
		}
		if v == s.model.Version() {
			return
		}
		if err := s.SwapParams(cfg.FS, path, v); err != nil {
			cfg.Logf("%v", err)
			return
		}
		cfg.Logf("swap: picked up published params v%d from %s", v, cfg.Dir)
		return
	}

	// Training role: fine-tune a private clone on the watermarked
	// prefix (the serving tensors are read, never written, so this runs
	// concurrently with traffic), publish, then swap through the same
	// validated path a watcher would take.
	clone, res, err := swap.FineTune(s.model, s.dyn, cfg.Trainer)
	if err != nil {
		cfg.Logf("swap: fine-tune skipped: %v", err)
		return
	}
	version := s.model.Version() + 1
	if v, _, lerr := swap.Latest(cfg.FS, cfg.Dir); lerr == nil && v >= version {
		version = v + 1 // never republish an existing version number
	}
	if err := swap.Publish(cfg.FS, cfg.Dir, clone, version); err != nil {
		cfg.Logf("swap: publish v%d: %v", version, err)
		return
	}
	if err := s.SwapParams(cfg.FS, swap.ParamsPath(cfg.Dir, version), version); err != nil {
		cfg.Logf("%v", err)
		return
	}
	loss := 0.0
	if len(res.EpochLoss) > 0 {
		loss = res.EpochLoss[len(res.EpochLoss)-1]
	}
	cfg.Logf("swap: fine-tuned (loss %.4f, val AP %.4f) and swapped to v%d", loss, res.ValAP, version)
}

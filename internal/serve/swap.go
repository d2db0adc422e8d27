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
// §15): SwapParams publishes a new params version built from a
// published parameter snapshot, and swapTick is the background loop
// Start runs — either fine-tuning locally and publishing, or watching a
// swap directory another process publishes into.

// SwapParams makes the params checkpoint at path, as the given version,
// the one serving. The checkpoint is parsed and fully validated
// (envelope CRC, tensor count, every shape), and a new model over it
// and a new backend over that model are built the way boot built
// them, all with nothing locked and traffic flowing on the old
// version. A corrupt or torn snapshot therefore rolls back trivially:
// nothing was published, the previous version keeps serving, and the
// attempt is counted in rollbacks. Publishing is one pointer store; a
// request that loaded the old version finishes on it, and the new
// version starts with empty caches, time tables and packs of its own
// parameters.
//
// fsys is the file system path is read through (nil: checkpoint.OS);
// fault tests inject faultfs.
func (s *Server) SwapParams(fsys checkpoint.FS, path string, version uint64) error {
	if fsys == nil {
		fsys = checkpoint.OS{}
	}
	m := s.cur.Load().model
	sp, err := m.ParseParamsFS(fsys, path)
	var next *published
	if err == nil {
		next, err = s.build(m.WithParams(sp, version))
	}
	if err != nil {
		s.rollbacks.Add(1)
		return fmt.Errorf("serve: swap to v%d rejected, serving v%d unchanged: %w",
			version, m.Version(), err)
	}
	// The store takes no lock. An ingest holds the graph's write gate
	// from loading the version it invalidates to its last invalidation,
	// and every pass of every version holds the read side, so a version
	// published inside that hold computes and caches nothing until the
	// ingest's edges are written and invalidated.
	old := s.cur.Swap(next)
	old.close()
	s.swaps.Add(1)
	s.lastSwapUnix.Store(time.Now().Unix())
	return nil
}

// SwapConfig configures the background swap loop. Every tick failure
// is logged and non-fatal: a fine-tune that cannot run (stream too
// short), a publish that cannot land, or a swap rejected on a corrupt
// snapshot all leave the current version serving.
type SwapConfig struct {
	// Dir is the swap directory (params-<version>.tgp + CURRENT).
	Dir string
	// Interval is the tick cadence; 0 runs no loop.
	Interval time.Duration
	// Train selects the loop's role. True: fine-tune a clone of the
	// serving model on the watermarked prefix of the live stream each
	// tick, publish it into Dir, and swap to it. False: watch Dir's
	// CURRENT manifest and swap whenever another process (tgopt-train
	// -swap-dir, or a training-mode server) publishes a new version.
	Train bool
	// Trainer configures the fine-tune when Train is set.
	Trainer trainer.Config
}

// swapTick is one loop iteration: train-publish-swap, or poll-swap.
func (s *Server) swapTick() {
	cfg, fsys, logf := s.cfg.Swap, s.cfg.FS, s.cfg.Logf
	if !cfg.Train {
		v, path, err := swap.Latest(fsys, cfg.Dir)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				logf("swap: manifest read: %v", err)
			}
			return // nothing published yet
		}
		if v == s.cur.Load().model.Version() {
			return
		}
		if err := s.SwapParams(fsys, path, v); err != nil {
			logf("%v", err)
			return
		}
		logf("swap: picked up published params v%d from %s", v, cfg.Dir)
		return
	}

	// Training role: fine-tune a private clone on the watermarked
	// prefix (the serving tensors are read, never written, so this runs
	// concurrently with traffic), publish, then swap through the same
	// validated path a watcher would take.
	m := s.cur.Load().model
	clone, res, err := swap.FineTune(m, s.dyn, cfg.Trainer)
	if err != nil {
		logf("swap: fine-tune skipped: %v", err)
		return
	}
	version := m.Version() + 1
	if v, _, lerr := swap.Latest(fsys, cfg.Dir); lerr == nil && v >= version {
		version = v + 1 // never republish an existing version number
	}
	if err := swap.Publish(fsys, cfg.Dir, clone, version); err != nil {
		logf("swap: publish v%d: %v", version, err)
		return
	}
	if err := s.SwapParams(fsys, swap.ParamsPath(cfg.Dir, version), version); err != nil {
		logf("%v", err)
		return
	}
	loss := 0.0
	if len(res.EpochLoss) > 0 {
		loss = res.EpochLoss[len(res.EpochLoss)-1]
	}
	logf("swap: fine-tuned (loss %.4f, val AP %.4f) and swapped to v%d", loss, res.ValAP, version)
}

package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/swap"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// This file is how a version comes to serve (DESIGN.md §13, §15):
// publish builds, warms and publishes a version, and its two callers
// are SwapParams, which publishes a new params version, and restart,
// which replaces a version one of whose cores went down. swapTick is
// the background loop Start runs — either fine-tuning locally and
// publishing, or watching a swap directory another process publishes
// into.

// restartPause paces restart attempts after a build that failed.
const restartPause = 100 * time.Millisecond

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
	if err == nil {
		_, err = s.publish(m.WithParams(sp, version), nil)
	}
	if err != nil {
		s.rollbacks.Add(1)
		return fmt.Errorf("serve: swap to v%d rejected, serving v%d unchanged: %w",
			version, m.Version(), err)
	}
	s.swaps.Add(1)
	s.lastSwapUnix.Store(time.Now().Unix())
	return nil
}

// publish builds a version over m and makes it the one serving, and
// reports whether it did. A swap (crashed nil) publishes whatever
// serves, and its version starts with empty caches. A restart replaces
// crashed, a version with a core down, by one over crashed's model: it
// first saves crashed's live cores to CacheFile (a down core refuses,
// so its last snapshot stands), then warms the new version from
// CacheFile and publishes it only if crashed still serves, so a swap
// that landed first wins.
//
// A swap's publish takes no lock. An ingest holds the
// graph's write gate from loading the version it invalidates to its
// last invalidation, and every pass of every version holds the read
// side, so a version published inside that hold computes and caches
// nothing until the ingest's edges are written and invalidated. A
// restart's warm and publish share one hold of the read side: an edge
// written before it is in the graph the warm re-samples, and one
// written after it is invalidated on the new version.
func (s *Server) publish(m *tgat.Model, crashed *published) (bool, error) {
	warm := crashed != nil && s.cfg.CacheFile != ""
	if warm {
		// A save that fails (a down core always refuses) leaves the last
		// snapshot standing, which the warm checks like any other.
		_ = crashed.backend.SaveSnapshot()
	}
	next, err := s.build(m)
	if err != nil {
		return false, err
	}
	if crashed == nil {
		s.cur.Store(next)
		return true, nil
	}
	gate := s.dyn.Gate()
	gate.RLock()
	defer gate.RUnlock()
	if warm {
		s.warmStart(next.backend)
	}
	return s.cur.CompareAndSwap(crashed, next), nil
}

// restart replaces p, whose core just went down, on a goroutine of its
// own; it runs once per version, whichever pass saw the panic. A build
// that fails is logged and retried after restartPause until p no longer
// serves or the server closes.
func (s *Server) restart(p *published) {
	if !p.restarting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		s.restartMu.Lock()
		defer s.restartMu.Unlock()
		s.cfg.Logf("restart: a core of params v%d is down; rebuilding", p.model.Version())
		for attempt := 1; !s.closed && s.cur.Load() == p; attempt++ {
			ok, err := s.publish(p.model, p)
			switch {
			case err != nil:
				s.cfg.Logf("restart: attempt %d: %v", attempt, err)
				time.Sleep(restartPause)
			case ok:
				s.restarts.Add(1)
				s.cfg.Logf("restart: published (attempt %d)", attempt)
			}
		}
	}()
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

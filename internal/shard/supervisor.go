package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"
)

// Supervisor: a shard whose engine panics is torn down wholesale (the
// panic may have left the old core's locks or arenas poisoned, so
// nothing from it is reused) and rebuilt in the background:
//
//  1. crash() marks the shard crashed, so the router routes around it
//     and Apply stops touching the old core.
//  2. The restart goroutine builds a fresh engine over the router's
//     graph, which already holds every edge taken so far.
//  3. Under ingestMu it warms the caches from the shard's last snapshot
//     (the engine re-samples each saved row's window on the graph and
//     keeps the rows whose window is unchanged), swaps the core in, and
//     clears crashed, so no edge falls between the load and the first
//     live Apply. From then on the shard is up and its owner's legs
//     reach it again.

// restartBackoff paces rebuild attempts after a failed rebuild.
const restartBackoff = 100 * time.Millisecond

// crash tears a shard down and schedules a single-flight restart. It
// is safe to call from any number of concurrent observers; only the
// first arms the rebuild.
func (r *Router) crash(s *Shard, cause error) {
	s.crashed.Store(true)
	if r.closed.Load() {
		return
	}
	if !s.restarting.CompareAndSwap(false, true) {
		return
	}
	r.rebuildMu.Lock()
	r.rebuilds++
	r.rebuildMu.Unlock()
	go func() {
		defer func() {
			s.restarting.Store(false)
			r.rebuildMu.Lock()
			r.rebuilds--
			if r.rebuilds == 0 {
				r.rebuildDone.Broadcast()
			}
			r.rebuildMu.Unlock()
		}()
		r.restart(s, cause)
	}()
}

// WaitRestarts blocks until no supervisor rebuild is in flight: every
// crash observed before the call has either been rebuilt (its Restarts
// counter bumped, the shard up) or abandoned because the
// router closed. A leg reports its panic to the supervisor before it
// returns, so after a degraded response this waits for exactly the
// rebuilds that response's failures armed.
func (r *Router) WaitRestarts() {
	r.rebuildMu.Lock()
	for r.rebuilds > 0 {
		r.rebuildDone.Wait()
	}
	r.rebuildMu.Unlock()
}

// restart rebuilds a crashed shard over the router's graph from its
// last cache snapshot. It retries with backoff until the rebuild succeeds
// or the router closes.
func (r *Router) restart(s *Shard, cause error) {
	r.cfg.Logf("shard %d: crashed (%v); rebuilding", s.id, cause)
	for attempt := 1; ; attempt++ {
		if r.closed.Load() {
			return
		}
		if r.restartOnce(s) {
			s.restarts.Add(1)
			r.cfg.Logf("shard %d: restarted (attempt %d)", s.id, attempt)
			return
		}
		time.Sleep(restartBackoff)
	}
}

// restartOnce is one rebuild attempt. It runs under the pool swap
// barrier's read side: a params swap committing mid-rebuild would
// otherwise let this core pack its weights from half-written tensors
// and warm caches from rows of parameters the pool no longer serves.
// Lock order (swapMu → ingestMu → engine gates) holds: the commit path
// never takes ingestMu.
func (r *Router) restartOnce(s *Shard) bool {
	r.swapMu.RLock()
	defer r.swapMu.RUnlock()
	c, err := r.buildCore(s.id)
	if err != nil {
		r.cfg.Logf("shard %d: rebuild failed: %v", s.id, err)
		return false
	}
	// Apply skips a crashed shard, so the load and the swap share one
	// ingestMu hold: an edge Applied before the hold is in the graph the
	// load re-samples, and one Applied after it reaches the new core.
	r.ingestMu.Lock()
	r.loadSnapshot(s.id, c)
	s.setCore(c)
	s.crashed.Store(false)
	r.ingestMu.Unlock()
	return true
}

// snapshotPath returns a shard's cache snapshot path.
func (r *Router) snapshotPath(id int) string {
	return filepath.Join(r.cfg.SnapshotDir, fmt.Sprintf("shard-%d.tgc", id))
}

// SaveSnapshot persists every live shard's memo caches under
// Config.SnapshotDir — fixed at construction because supervisor
// restarts read it, so the path a single Core would write to is not
// consulted. Each snapshot carries the digest of the parameters and
// features its rows read, and each row its window's tag
// (core.Engine.SaveCachesFS). With no shard up it writes nothing and
// returns ErrNoShardUp.
func (r *Router) SaveSnapshot(_ string) error {
	if r.cfg.SnapshotDir == "" {
		return fmt.Errorf("shard: no snapshot dir configured")
	}
	var first error
	live := 0
	for _, s := range r.shards {
		if !s.up() {
			continue
		}
		live++
		if err := s.currentCore().eng.SaveCachesFS(r.cfg.FS, r.snapshotPath(s.id)); err != nil {
			r.snapshotErrors.Add(1)
			if first == nil {
				first = fmt.Errorf("shard %d: %w", s.id, err)
			}
			continue
		}
		r.snapshotSaves.Add(1)
	}
	if live == 0 {
		return fmt.Errorf("shard: snapshot wrote nothing: %w", ErrNoShardUp)
	}
	return first
}

// WarmStart loads every shard's snapshot from Config.SnapshotDir at
// boot (before traffic). Missing snapshots cold-start silently; corrupt
// ones are logged, counted and cold-start. Returns the number of shards
// warmed, and fs.ErrNotExist when that is none.
func (r *Router) WarmStart(_ string) (warmed int, err error) {
	if r.cfg.SnapshotDir == "" {
		return 0, fmt.Errorf("shard: no snapshot dir configured: %w", fs.ErrNotExist)
	}
	// Same barriers as restartOnce: a load checks the snapshot's inputs
	// digest against the engine's parameters, so a swap landing mid-warm
	// must not interleave, and an Apply must not land between a row's
	// re-sample and its index record.
	r.swapMu.RLock()
	defer r.swapMu.RUnlock()
	r.ingestMu.Lock()
	defer r.ingestMu.Unlock()
	for _, s := range r.shards {
		if r.loadSnapshot(s.id, s.currentCore()) {
			warmed++
		}
	}
	if warmed == 0 {
		return 0, fmt.Errorf("shard: no loadable snapshot under %s: %w", r.cfg.SnapshotDir, fs.ErrNotExist)
	}
	return warmed, nil
}

// loadSnapshot warms a core from the shard's last snapshot, if it
// exists and validates; the engine refuses a snapshot of other
// parameters or features and keeps only the rows whose window the
// shared graph still gives them. A missing snapshot file is a silent
// cold start, an unusable one a counted cold start (correctness never
// depends on the snapshot). Callers hold ingestMu, so no Apply lands
// while the load re-samples.
func (r *Router) loadSnapshot(id int, c *Core) bool {
	if r.cfg.SnapshotDir == "" {
		return false
	}
	if err := c.eng.LoadCachesFS(r.cfg.FS, r.snapshotPath(id)); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			r.snapshotErrors.Add(1)
			r.cfg.Logf("shard %d: snapshot load: %v; cold start", id, err)
		}
		return false
	}
	r.snapshotLoads.Add(1)
	return true
}

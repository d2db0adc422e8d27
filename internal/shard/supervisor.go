package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"time"

	"tgopt/internal/checkpoint"
)

// Supervisor: a shard whose engine panics is torn down wholesale (the
// panic may have left the old core's locks or arenas poisoned, so
// nothing from it is reused) and rebuilt in the background:
//
//  1. crash() trips the breaker (ForceOpen) and marks the shard
//     crashed, so the router routes around it and Apply stops touching
//     the old core.
//  2. The restart goroutine builds a fresh engine over the router's
//     graph, which already holds every edge taken so far.
//  3. Under ingestMu it warms the caches from the shard's last snapshot
//     (re-running invalidation for every edge at or past the watermark
//     the snapshot recorded), swaps the core in, and clears crashed, so
//     no edge falls between the replay and the first live Apply.
//  4. The breaker moves Open → HalfOpen: traffic is re-admitted by
//     probes rather than a thundering herd.

// restartBackoff paces rebuild attempts after a failed rebuild.
const restartBackoff = 100 * time.Millisecond

// posVersion is the envelope version of the .pos sidecar: the graph's
// watermark at save time, as 8 little-endian float64 bytes. Version 1
// held an edge count and is refused.
const posVersion uint32 = 2

// crash tears a shard down and schedules a single-flight restart. It
// is safe to call from any number of concurrent observers; only the
// first arms the rebuild.
func (r *Router) crash(s *Shard, cause error) {
	s.crashed.Store(true)
	s.breaker.ForceOpen()
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
// counter bumped, its breaker half-open) or abandoned because the
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
			s.breaker.ToHalfOpen()
			r.cfg.Logf("shard %d: restarted (attempt %d)", s.id, attempt)
			return
		}
		time.Sleep(restartBackoff)
	}
}

// restartOnce is one rebuild attempt. It runs under the pool swap
// barrier's read side: a params swap committing mid-rebuild would
// otherwise let this core pack its weights from half-written tensors
// and warm caches stamped with a version the pool no longer serves.
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
	// Apply skips a crashed shard, so the load, its replay and the swap
	// share one ingestMu hold: an edge Applied before the hold is in the
	// graph the replay reads, and one Applied after it reaches the new
	// core.
	r.ingestMu.Lock()
	r.loadSnapshot(s.id, c)
	s.setCore(c)
	s.crashed.Store(false)
	r.ingestMu.Unlock()
	return true
}

// snapshotPaths returns the cache blob and watermark sidecar paths for
// a shard.
func (r *Router) snapshotPaths(id int) (cache, pos string) {
	return filepath.Join(r.cfg.SnapshotDir, fmt.Sprintf("shard-%d.tgc", id)),
		filepath.Join(r.cfg.SnapshotDir, fmt.Sprintf("shard-%d.pos", id))
}

// SaveSnapshot persists every live shard's memo caches plus the graph
// watermark W they are valid from, under Config.SnapshotDir — fixed at
// construction because supervisor restarts read it, so the path a
// single Core would write to is not consulted. W is read once, BEFORE
// any cache save starts. The watermark never moves back, so every edge
// the graph takes afterwards has time ≥ W, and so does the one edge
// /v1/ingest may have taken but not yet Applied (each edge is Applied
// before the next is taken). A restore that re-invalidates every edge
// at or past W therefore covers each edge the saved entries predate;
// that some of them were already applied is redundant, and safe.
func (r *Router) SaveSnapshot(_ string) error {
	if r.cfg.SnapshotDir == "" {
		return fmt.Errorf("shard: no snapshot dir configured")
	}
	w := r.dyn.Watermark()
	var first error
	for _, s := range r.shards {
		if s.crashed.Load() {
			continue
		}
		c := s.currentCore()
		cachePath, posPath := r.snapshotPaths(s.id)
		err := c.eng.SaveCachesFS(r.cfg.FS, cachePath)
		if err == nil {
			err = writeWatermark(r.cfg.FS, posPath, w)
		}
		if err != nil {
			r.snapshotErrors.Add(1)
			if first == nil {
				first = fmt.Errorf("shard %d: %w", s.id, err)
			}
			continue
		}
		r.snapshotSaves.Add(1)
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
	// Same barriers as restartOnce: snapshot loads validate their stored
	// model-version stamp against the engine's, so a swap landing
	// mid-warm must not interleave, and an Apply must not land between a
	// load and its replay.
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
// exists and validates, then re-runs invalidation for every edge the
// graph holds at or past the watermark W the snapshot recorded: the
// snapshot may hold entries those edges invalidated in the live engine
// after the save. A missing snapshot file is a silent cold start; an
// unreadable one, a NaN W or a W past the graph's clock is a counted
// cold start (correctness never depends on the snapshot). Callers hold
// ingestMu.
func (r *Router) loadSnapshot(id int, c *Core) bool {
	if r.cfg.SnapshotDir == "" {
		return false
	}
	cachePath, posPath := r.snapshotPaths(id)
	w, err := readWatermark(r.cfg.FS, posPath)
	if err == nil && (math.IsNaN(w) || w > r.dyn.MaxTime()) {
		err = fmt.Errorf("watermark %v outside the graph's clock %v", w, r.dyn.MaxTime())
	}
	if err == nil {
		err = c.eng.LoadCachesFS(r.cfg.FS, cachePath)
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			r.snapshotErrors.Add(1)
			r.cfg.Logf("shard %d: snapshot load: %v; cold start", id, err)
		}
		return false
	}
	// InvalidateLateEdge rather than InvalidateAppend: the latter's
	// no-future-memos fast path would skip the scan on a fresh engine,
	// and the restored entries are exactly such future memos. The graph
	// keeps its edges in time order, so each scan retires only records
	// below its own edge, which no later replay can reach (core.Engine's
	// indexFloor).
	for _, e := range r.dyn.EdgesFrom(w) {
		c.eng.InvalidateLateEdge(e.Src, e.Dst, e.Time)
	}
	r.snapshotLoads.Add(1)
	return true
}

// writeWatermark persists a watermark through the checkpoint envelope
// (checksummed, atomically replaced).
func writeWatermark(fsys checkpoint.FS, path string, w float64) error {
	return checkpoint.WriteFS(fsys, path, posVersion, func(wr io.Writer) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(w))
		_, err := wr.Write(buf[:])
		return err
	})
}

// readWatermark reads a watermark written by writeWatermark.
func readWatermark(fsys checkpoint.FS, path string) (float64, error) {
	var w float64
	err := checkpoint.ReadFS(fsys, path, func(version uint32, rd io.Reader) error {
		if version != posVersion {
			return fmt.Errorf("shard: pos sidecar version %d, want %d", version, posVersion)
		}
		var buf [8]byte
		if _, err := io.ReadFull(rd, buf[:]); err != nil {
			return err
		}
		w = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
		return nil
	})
	return w, err
}

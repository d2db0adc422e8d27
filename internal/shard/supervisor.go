package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"time"

	"tgopt/internal/checkpoint"
	"tgopt/internal/graph"
)

// Supervisor: a shard whose engine panics is torn down wholesale (the
// panic may have left the old core's locks or arenas poisoned, so
// nothing from it is reused) and rebuilt in the background:
//
//  1. crash() trips the breaker (ForceOpen) and marks the shard
//     crashed, so the router routes around it and broadcast ingest
//     stops touching the old core.
//  2. The restart goroutine captures the edge-log length n, builds a
//     fresh replica + engine from log[:n], and warms its caches from
//     the shard's last snapshot (validating the snapshot's log
//     position and re-running invalidation for the edges it predates).
//  3. Under ingestMu it replays log[n:] — edges broadcast while the
//     rebuild ran — swaps the core in, and clears crashed, so no edge
//     is ever missed between replay and the first live Apply.
//  4. The breaker moves Open → HalfOpen: traffic is re-admitted by
//     probes rather than a thundering herd.

// restartBackoff paces rebuild attempts after a failed rebuild.
const restartBackoff = 100 * time.Millisecond

// posVersion is the envelope version of the .pos sidecar (an 8-byte
// little-endian edge-log position).
const posVersion uint32 = 1

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

// restart rebuilds a crashed shard from the edge log and its last
// cache snapshot. It retries with backoff until the rebuild succeeds
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
// otherwise let this core pack int8 weights from half-written tensors
// and warm caches stamped with a version the pool no longer serves.
// Lock order (swapMu → ingestMu → engine gates) holds: the commit path
// never takes ingestMu.
func (r *Router) restartOnce(s *Shard) bool {
	r.swapMu.RLock()
	defer r.swapMu.RUnlock()
	// Capture a stable prefix of the log. Appends may grow r.log past n
	// concurrently, but entries below n are immutable and the full
	// slice expression pins the prefix against reallocation races.
	r.ingestMu.Lock()
	n := len(r.log)
	prefix := r.log[:n:n]
	r.ingestMu.Unlock()

	c, err := r.buildCore(s.id, prefix)
	if err != nil {
		r.cfg.Logf("shard %d: rebuild failed: %v", s.id, err)
		return false
	}
	r.loadSnapshot(s.id, c, prefix)

	// Catch up on edges broadcast during the rebuild and swap the core
	// in atomically with respect to Apply, so none are missed.
	r.ingestMu.Lock()
	for _, e := range r.log[n:] {
		// nil divergence counter: replay trusts the replica's own
		// ingest decision, there is no authoritative outcome to check.
		applyToCore(c, e, graph.IngestDropped, nil)
	}
	old := s.swapCore(c)
	s.crashed.Store(false)
	r.ingestMu.Unlock()

	if old != nil {
		// Close what can be closed; a poisoned core may refuse.
		if cerr := old.Close(); cerr != nil {
			r.cfg.Logf("shard %d: old core close: %v", s.id, cerr)
		}
	}
	return true
}

// snapshotPaths returns the cache blob and log-position sidecar paths
// for a shard.
func (r *Router) snapshotPaths(id int) (cache, pos string) {
	return filepath.Join(r.cfg.SnapshotDir, fmt.Sprintf("shard-%d.tgc", id)),
		filepath.Join(r.cfg.SnapshotDir, fmt.Sprintf("shard-%d.pos", id))
}

// SaveSnapshot persists every live shard's memo caches plus the edge-
// log position the snapshot is valid for, under Config.SnapshotDir —
// fixed at construction because supervisor restarts read it, so the
// path a single Core would write to is not consulted. The position is
// captured BEFORE the cache save starts: entries stored concurrently
// with the save against newer edges are then redundantly re-invalidated
// on restore, which is safe — recording the position after the save
// could silently skip invalidations instead.
func (r *Router) SaveSnapshot(_ string) error {
	if r.cfg.SnapshotDir == "" {
		return fmt.Errorf("shard: no snapshot dir configured")
	}
	var first error
	for _, s := range r.shards {
		if s.crashed.Load() {
			continue
		}
		c := s.currentCore()
		if c == nil {
			continue
		}
		r.ingestMu.Lock()
		pos := int64(len(r.log))
		r.ingestMu.Unlock()
		cachePath, posPath := r.snapshotPaths(s.id)
		err := c.eng.SaveCachesFS(r.cfg.FS, cachePath)
		if err == nil {
			err = writePos(r.cfg.FS, posPath, pos)
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
	// Same barrier as restartOnce: snapshot loads validate their stored
	// model-version stamp against the engine's, so a swap landing
	// mid-warm must not interleave.
	r.swapMu.RLock()
	defer r.swapMu.RUnlock()
	r.ingestMu.Lock()
	prefix := r.log[:len(r.log):len(r.log)]
	r.ingestMu.Unlock()
	for _, s := range r.shards {
		c := s.currentCore()
		if c == nil {
			continue
		}
		if r.loadSnapshot(s.id, c, prefix) {
			warmed++
		}
	}
	if warmed == 0 {
		return 0, fmt.Errorf("shard: no loadable snapshot under %s: %w", r.cfg.SnapshotDir, fs.ErrNotExist)
	}
	return warmed, nil
}

// loadSnapshot warms one freshly built core from the shard's last
// snapshot, if it exists, validates, and is not newer than the log
// prefix the core was built from. Edges in log[pos:] — ingested after
// the snapshot was taken — get their invalidation re-run, since the
// snapshot may hold entries those edges already invalidated in the
// live engine. Any problem means cold start (correctness never
// depends on the snapshot).
func (r *Router) loadSnapshot(id int, c *Core, prefix []graph.Edge) bool {
	if r.cfg.SnapshotDir == "" {
		return false
	}
	cachePath, posPath := r.snapshotPaths(id)
	pos, err := readPos(r.cfg.FS, posPath)
	if err != nil {
		return false // no (or unreadable) sidecar: cold start
	}
	if pos < 0 || pos > int64(len(prefix)) {
		// Snapshot is ahead of the prefix this core knows about (or
		// nonsense); replaying invalidations would be unsound.
		r.snapshotErrors.Add(1)
		r.cfg.Logf("shard %d: snapshot position %d outside log (%d); cold start", id, pos, len(prefix))
		return false
	}
	if err := c.eng.LoadCachesFS(r.cfg.FS, cachePath); err != nil {
		r.snapshotErrors.Add(1)
		r.cfg.Logf("shard %d: snapshot load: %v; cold start", id, err)
		return false
	}
	// InvalidateLateEdge rather than InvalidateAppend: the latter's
	// no-future-memos fast path would skip the scan on a fresh engine,
	// and the restored entries are exactly such future memos. The
	// replayed edges may predate the replica's watermark, so they run in
	// time order: each scan retires only records below its own edge,
	// which no later replay can reach (core.Engine's indexFloor).
	replay := slices.Clone(prefix[pos:])
	slices.SortStableFunc(replay, func(a, b graph.Edge) int { return cmp.Compare(a.Time, b.Time) })
	for _, e := range replay {
		c.eng.InvalidateLateEdge(e.Src, e.Dst, e.Time)
	}
	r.snapshotLoads.Add(1)
	return true
}

// writePos persists an edge-log position through the checkpoint
// envelope (checksummed, atomically replaced).
func writePos(fsys checkpoint.FS, path string, pos int64) error {
	return checkpoint.WriteFS(fsys, path, posVersion, func(w io.Writer) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(pos))
		_, err := w.Write(buf[:])
		return err
	})
}

// readPos reads a position written by writePos.
func readPos(fsys checkpoint.FS, path string) (int64, error) {
	var pos int64
	err := checkpoint.ReadFS(fsys, path, func(version uint32, rd io.Reader) error {
		if version != posVersion {
			return fmt.Errorf("shard: pos sidecar version %d", version)
		}
		var buf [8]byte
		if _, err := io.ReadFull(rd, buf[:]); err != nil {
			return err
		}
		pos = int64(binary.LittleEndian.Uint64(buf[:]))
		return nil
	})
	return pos, err
}

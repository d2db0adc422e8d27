package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// snapshotPath returns a shard's cache snapshot path.
func (r *Router) snapshotPath(id int) string {
	return filepath.Join(r.cfg.CacheFile, fmt.Sprintf("shard-%d.tgc", id))
}

// SaveSnapshot persists every live shard's memo caches under the
// Config.CacheFile directory, which a warm start reads back. Each
// snapshot carries the digest of the parameters and features its rows
// read, and each row its window's tag (core.Engine.SaveCachesFS). With
// no shard up it writes nothing and returns ErrNoShardUp.
func (r *Router) SaveSnapshot() error {
	if r.cfg.CacheFile == "" {
		return fmt.Errorf("shard: no snapshot dir configured")
	}
	var first error
	live := 0
	for _, s := range r.shards {
		if !s.up() {
			continue
		}
		live++
		if err := s.core.eng.SaveCachesFS(r.cfg.FS, r.snapshotPath(s.id)); err != nil {
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

// WarmStart loads every shard's snapshot from the Config.CacheFile
// directory, before the router takes traffic. Missing snapshots
// cold-start silently; corrupt ones are logged, counted and
// cold-start. Returns the number of shards warmed, and fs.ErrNotExist
// when that is none. The caller holds the read side of the graph's
// write gate, so no gated write lands between a row's re-sample and its
// index record.
func (r *Router) WarmStart() (warmed int, err error) {
	for _, s := range r.shards {
		if r.loadSnapshot(s.id, s.core) {
			warmed++
		}
	}
	if warmed == 0 {
		return 0, fmt.Errorf("shard: no loadable snapshot under %s: %w", r.cfg.CacheFile, fs.ErrNotExist)
	}
	return warmed, nil
}

// loadSnapshot warms a core from the shard's last snapshot, if it
// exists and validates; the engine refuses a snapshot of other
// parameters or features and keeps only the rows whose window the
// shared graph still gives them. A missing snapshot file is a silent
// cold start, an unusable one a counted cold start (correctness never
// depends on the snapshot). Callers hold the gate's read side, so no
// gated write lands while the load re-samples.
func (r *Router) loadSnapshot(id int, c *Core) bool {
	if r.cfg.CacheFile == "" {
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

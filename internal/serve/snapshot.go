package serve

import (
	"errors"
	"io/fs"
	"sync"
	"time"
)

// warmStart loads into b the cache snapshot a previous process, or the
// version b replaces, saved to CacheFile. A missing snapshot is a
// normal cold start; a corrupt or unreadable one, or one computed from
// other parameters or features, is logged and also starts cold — the
// engine's LoadCaches is all-or-nothing. Of an accepted snapshot the
// engine keeps the rows whose window the graph still gives them; the
// caller holds the graph's write gate, read side, while the load
// re-samples those windows.
func (s *Server) warmStart(b backend) {
	path, logf := s.cfg.CacheFile, s.cfg.Logf
	warmed, err := b.WarmStart()
	switch {
	case err == nil:
		n := 0
		for _, eng := range b.Engines() {
			n += eng.CacheLen()
		}
		logf("warm-started %d memoized embeddings from %s (%d of %d cores)",
			n, path, warmed, len(b.Engines()))
	case errors.Is(err, fs.ErrNotExist):
		logf("no warm cache at %s; starting cold", path)
	default:
		s.snapshotErrors.Add(1)
		logf("warm cache %s unusable (%v); starting cold", path, err)
	}
}

// CacheLen returns the memoized embeddings resident across the
// serving version's engines.
func (s *Server) CacheLen() (n int) {
	for _, eng := range s.cur.Load().backend.Engines() {
		n += eng.CacheLen()
	}
	return n
}

// SaveSnapshot writes the cache snapshot warmStart reads: the single
// engine's to the CacheFile, or one per shard in that directory. Saves
// go through the atomic checkpoint writer, so a crash mid-snapshot (or
// a snapshot racing ingestion) always leaves the previous snapshot
// intact on disk.
func (s *Server) SaveSnapshot() error { return s.cur.Load().backend.SaveSnapshot() }

// snapshotTick is one background save. Failures are counted
// (snapshot_errors in /v1/stats) and logged, never fatal.
func (s *Server) snapshotTick() {
	if err := s.SaveSnapshot(); err != nil {
		s.snapshotErrors.Add(1)
		s.cfg.Logf("cache snapshot to %s failed: %v", s.cfg.CacheFile, err)
	} else {
		s.snapshotSaves.Add(1)
	}
}

// every runs tick on its own goroutine once per interval — the
// snapshotter's and the swap loop's cadence — until the returned stop
// is called. stop waits out a tick in progress and may be called more
// than once.
func every(interval time.Duration, tick func()) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				tick()
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(done)
		<-exited
	})
}

package serve

import (
	"errors"
	"io/fs"
	"sync"
	"time"
)

// WarmStart loads the cache snapshot a previous process saved: the
// file at path, or in sharded mode each shard's own under the router's
// snapshot directory. A missing snapshot is a normal cold start; a
// corrupt or unreadable one, or one computed from other parameters or
// features, is logged and also starts cold — the engine's LoadCaches is
// all-or-nothing, so a refused snapshot never half-populates a cache.
// Of an accepted snapshot the engine keeps the rows whose window the
// graph still gives them. A serving process must come up either way,
// which is why no error is returned. ingestMu keeps ingests out while
// the load re-samples those windows.
func (s *Server) WarmStart(path string, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s.ingestMu.Lock()
	warmed, err := s.backend.WarmStart(path)
	s.ingestMu.Unlock()
	switch {
	case err == nil:
		logf("warm-started %d memoized embeddings from %s (%d of %d cores)",
			s.CacheLen(), path, warmed, len(s.backend.Engines()))
	case errors.Is(err, fs.ErrNotExist):
		logf("no warm cache at %s; starting cold", path)
	default:
		s.snapshotErrors.Add(1)
		logf("warm cache %s unusable (%v); starting cold", path, err)
	}
}

// CacheLen returns the memoized embeddings resident across the
// server's engines.
func (s *Server) CacheLen() (n int) {
	for _, eng := range s.backend.Engines() {
		n += eng.CacheLen()
	}
	return n
}

// SaveSnapshot writes the cache snapshot WarmStart reads: the single
// engine's at path, or one per shard in the router's snapshot
// directory. Saves go through the atomic checkpoint writer, so a crash
// mid-snapshot (or a snapshot racing ingestion) always leaves the
// previous snapshot intact on disk.
func (s *Server) SaveSnapshot(path string) error { return s.backend.SaveSnapshot(path) }

// StartSnapshots begins periodic background SaveSnapshot calls to path
// and returns a stop function that halts the snapshotter and waits for
// any in-progress save. Failures are counted (snapshot_errors in
// /v1/stats) and logged, never fatal.
func (s *Server) StartSnapshots(path string, interval time.Duration, logf func(format string, args ...any)) (stop func()) {
	if path == "" || interval <= 0 {
		return func() {}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return every(interval, func() {
		if err := s.SaveSnapshot(path); err != nil {
			s.snapshotErrors.Add(1)
			logf("cache snapshot to %s failed: %v", path, err)
		} else {
			s.snapshotSaves.Add(1)
		}
	})
}

// every runs tick on its own goroutine once per interval — the
// snapshotter's and the swap loop's cadence — until the returned stop
// is called. stop waits out a tick in progress and may be called more
// than once.
func every(interval time.Duration, tick func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
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
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

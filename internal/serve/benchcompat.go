package serve

// benchmark/ only; ROADMAP item 18 deletes this file. It keeps the
// benchmark's construction compiling with the meaning it was written
// against: no request limits. Every core batches, New's and
// NewSharded's under DefaultConfig's batch configuration until
// SetBatching.

import (
	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
	"tgopt/internal/shard"
	"tgopt/internal/tgat"
)

// New builds a server on one shard.Core over dyn.
func New(model *tgat.Model, dyn *graph.Dynamic, opt core.Options) *Server {
	s, _ := NewSharded(model, dyn, opt, shard.Config{Shards: 1}) // one core builds without error
	return s
}

// NewSharded builds a server on c.Shards cores over dyn; it reads no
// other field of c.
func NewSharded(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, c shard.Config) (*Server, error) {
	cfg := DefaultConfig()
	cfg.Engine, cfg.Shards, cfg.Limits = opt, c.Shards, Limits{}
	return NewFromConfig(model, dyn, cfg)
}

// SetBatching rebuilds the serving version with its batchers
// configured as cfg says, and publishes it the way a swap does; a
// failed rebuild is logged and keeps the version serving as it was.
// Call it before traffic.
func (s *Server) SetBatching(cfg batcher.Config) {
	prev := s.cfg
	s.cfg.Batch = cfg
	next, err := s.build(s.cur.Load().model)
	if err != nil {
		s.cfg = prev
		s.cfg.Logf("serve: batch configuration unchanged: %v", err)
		return
	}
	s.cur.Swap(next).close()
}

// Batcher returns an unsharded server's batcher (nil for a pool).
func (s *Server) Batcher() *batcher.Batcher {
	if c, ok := s.cur.Load().backend.(*shard.Core); ok {
		return c.Batchers()[0]
	}
	return nil
}

package serve

// benchmark/ only; ROADMAP item 18 deletes this file. It keeps the
// benchmark's construction compiling with the meaning it was written
// against: no request limits, and batching off until SetBatching.

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

// NewSharded builds a server on c.Shards cores over dyn.
func NewSharded(model *tgat.Model, dyn *graph.Dynamic, opt core.Options, c shard.Config) (*Server, error) {
	cfg := DefaultConfig()
	cfg.Engine, cfg.Config, cfg.Limits = opt, c, Limits{}
	return NewFromConfig(model, dyn, cfg)
}

// SetBatching rebuilds the serving version with batching on, as cfg
// says, and publishes it the way a swap does; a failed rebuild is
// logged and keeps the version serving unbatched. Call it before traffic.
func (s *Server) SetBatching(cfg batcher.Config) {
	unbatched := s.cfg
	s.cfg.Batching, s.cfg.Batch = true, cfg
	next, err := s.build(s.cur.Load().model)
	if err != nil {
		s.cfg = unbatched
		s.cfg.Logf("serve: batching stays off: %v", err)
		return
	}
	s.cur.Swap(next).close()
}

// Batcher returns an unsharded server's batcher (nil: batching off).
func (s *Server) Batcher() *batcher.Batcher {
	if c, ok := s.cur.Load().backend.(*shard.Core); ok && c.Batchers() != nil {
		return c.Batchers()[0]
	}
	return nil
}

package core

import (
	"tgopt/internal/tensor"
)

// Embedder is the minimal computation surface of a TGOpt engine: a
// fused batch-embedding pass. It is the seam between the engine and
// everything that drives it — the request micro-batcher fuses
// concurrent targets into one EmbedWith call, the shard router
// scatters target groups across per-shard engines, and tests
// substitute controllable fakes. *Engine is the production
// implementation; implementations must be safe for concurrent calls
// with distinct arenas and must return a (len(nodes), dim) row-major
// tensor whose rows are deterministic functions of the graph state
// (batch composition must not change row values — see DESIGN.md §10).
type Embedder interface {
	// EmbedWith computes temporal embeddings for the ⟨node, time⟩
	// targets, drawing every intermediate from ar (heap when ar is
	// nil). The returned tensor is invalidated by ar.Reset.
	EmbedWith(ar *tensor.Arena, nodes []int32, ts []float64) *tensor.Tensor
	// Dim returns the embedding row width.
	Dim() int
}

var _ Embedder = (*Engine)(nil)

// Dim returns the width of the embedding rows the engine produces.
func (e *Engine) Dim() int { return e.model.Cfg.NodeDim }

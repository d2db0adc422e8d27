// Package tgopt is a from-scratch Go implementation of TGOpt
// (Wang & Mendis, PPoPP 2023): redundancy-aware optimizations —
// deduplication, embedding memoization, and time-encoding
// precomputation — for Temporal Graph Attention Network (TGAT)
// inference, together with the full substrate stack: dense tensors, a
// tape-based autograd, the TGAT model itself, temporal graph storage
// with a parallel most-recent sampler, link-prediction training,
// synthetic dynamic-graph workloads shaped after the paper's seven
// datasets, and a benchmark harness regenerating every table and figure
// of the paper's evaluation.
//
// This package is the public facade: it re-exports the stable surface
// of the internal packages. The typical flow is
//
//	ds, _ := tgopt.Generate(spec, tgopt.DatasetOptions{FeatureDim: 64})
//	model, _ := tgopt.NewModel(tgopt.DefaultModelConfig(), ds.NodeFeat, ds.EdgeFeat)
//	sampler := tgopt.NewSampler(ds.Graph, 20, tgopt.MostRecent, 0)
//	engine := tgopt.NewEngine(model, sampler, tgopt.OptAll())
//	embeddings := engine.Embed(nodes, timestamps)
//
// Engine.Embed is a drop-in replacement for the baseline Model.Embed:
// its outputs are identical within the paper's stated 1e-5 tolerance
// (and in this implementation, bit-for-bit).
package tgopt

import (
	"tgopt/internal/core"
	"tgopt/internal/dataset"
	"tgopt/internal/graph"
	"tgopt/internal/npy"
	"tgopt/internal/tensor"
	"tgopt/internal/tgat"
	"tgopt/internal/trainer"
)

// Tensor is a dense row-major float32 tensor.
type Tensor = tensor.Tensor

// RNG is the deterministic pseudo-random generator used throughout.
type RNG = tensor.RNG

// NewRNG creates a deterministic generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewTensor creates a zero-filled tensor of the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// Graph is an immutable continuous-time dynamic graph with a T-CSR
// temporal adjacency index.
type Graph = graph.Graph

// Edge is one timestamped interaction.
type Edge = graph.Edge

// NewGraph builds a graph over nodes 1..numNodes (0 is the padding
// node) from an edge list, which is sorted chronologically.
func NewGraph(numNodes int, edges []Edge) (*Graph, error) {
	return graph.NewGraph(numNodes, edges)
}

// Dynamic is a streaming continuous-time dynamic graph supporting
// chronological appends, late inserts and (rare) edge deletions. An
// engine over it stays exact when every edge write (an append, a late
// insert or a deletion) is followed by one call,
// Engine.InvalidateEdge(u, v, t). A writer running beside engine
// passes holds the graph's write gate (Dynamic.Gate, write side) across
// the write and its InvalidateEdge; every pass holds the read side.
type Dynamic = graph.Dynamic

// NewDynamic creates an empty streaming graph over nodes 1..numNodes.
func NewDynamic(numNodes int) *Dynamic { return graph.NewDynamic(numNodes) }

// Sampler draws bounded temporal neighborhoods.
type Sampler = graph.Sampler

// Strategy selects the neighbor sampling strategy.
type Strategy = graph.Strategy

// Sampling strategies. The memoization cache requires MostRecent.
const (
	MostRecent = graph.MostRecent
	Uniform    = graph.Uniform
)

// NewSampler creates a temporal neighbor sampler drawing up to k
// neighbors per target.
func NewSampler(g *Graph, k int, strategy Strategy, seed uint64) *Sampler {
	return graph.NewSampler(g, k, strategy, seed)
}

// NewDynamicSampler creates a sampler over a streaming graph.
func NewDynamicSampler(d *Dynamic, k int, strategy Strategy, seed uint64) *Sampler {
	return graph.NewDynamicSampler(d, k, strategy, seed)
}

// Model is the baseline TGAT model.
type Model = tgat.Model

// ModelConfig holds the TGAT architecture hyperparameters.
type ModelConfig = tgat.Config

// DefaultModelConfig returns the paper's architecture (2 layers, 2
// heads, 20 most-recent neighbors) at a laptop-friendly width.
func DefaultModelConfig() ModelConfig { return tgat.DefaultConfig() }

// NewModel creates a TGAT model over node and edge feature tables
// (row 0 of each must be the all-zero padding row).
func NewModel(cfg ModelConfig, nodeFeat, edgeFeat *Tensor) (*Model, error) {
	return tgat.NewModel(cfg, nodeFeat, edgeFeat)
}

// EmbedFunc computes top-layer temporal embeddings for a target batch.
type EmbedFunc = tgat.EmbedFunc

// StreamResult is the output of a full-stream inference pass.
type StreamResult = tgat.StreamResult

// StreamInference iterates every edge chronologically in batches,
// embedding and scoring each interaction — the paper's standard
// inference task.
func StreamInference(g *Graph, m *Model, batchSize int, embed EmbedFunc) *StreamResult {
	return tgat.StreamInference(g, m, batchSize, embed)
}

// Engine computes TGAT embeddings with the paper's redundancy-aware
// optimizations (Algorithm 1).
type Engine = core.Engine

// Options configure the TGOpt engine.
type Options = core.Options

// OptAll enables all three optimizations at the paper's defaults
// (2M-entry cache, 10k time window).
func OptAll() Options { return core.OptAll() }

// NewEngine creates a TGOpt engine over a model and most-recent
// sampler.
func NewEngine(m *Model, s *Sampler, opt Options) *Engine {
	return core.NewEngine(m, s, opt)
}

// Key packs a node id and timestamp into the collision-free 64-bit
// cache key of §4.1.
func Key(node int32, t float64) uint64 { return core.Key(node, t) }

// Dataset is a generated or loaded workload: graph plus feature tables.
type Dataset = dataset.Dataset

// DatasetSpec describes a synthetic dynamic-graph workload.
type DatasetSpec = dataset.Spec

// DatasetOptions control feature synthesis.
type DatasetOptions = dataset.Options

// DatasetSpecs returns the seven workloads modeled after the paper's
// Table 2.
func DatasetSpecs() []DatasetSpec { return dataset.Specs() }

// DatasetByName returns the named Table 2 workload spec.
func DatasetByName(name string) (DatasetSpec, error) { return dataset.SpecByName(name) }

// Generate synthesizes the workload described by spec.
func Generate(spec DatasetSpec, opt DatasetOptions) (*Dataset, error) {
	return dataset.Generate(spec, opt)
}

// LoadCSV reads an edge list in the TGAT artifact's ml_{name}.csv
// format.
func LoadCSV(path string) (*Graph, error) { return dataset.LoadCSV(path) }

// ReadNpy reads a NumPy .npy file (the artifact's feature-table
// format) into a tensor.
func ReadNpy(path string) (*Tensor, error) { return npy.ReadFile(path) }

// WriteNpy writes a tensor as a NumPy .npy file.
func WriteNpy(path string, t *Tensor) error { return npy.WriteFile(path, t) }

// TrainConfig controls link-prediction training.
type TrainConfig = trainer.Config

// TrainResult summarizes a training run.
type TrainResult = trainer.Result

// Train runs standard link-prediction training (negative sampling,
// BCE, Adam) over the model's parameters in place.
func Train(m *Model, g *Graph, s *Sampler, cfg TrainConfig) (*TrainResult, error) {
	return trainer.Train(m, g, s, cfg)
}

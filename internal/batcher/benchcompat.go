package batcher

// benchmark/ only; ROADMAP item 18 deletes this file. The batcher has
// no settings: these names keep the benchmark's construction compiling,
// and nothing in the program reads them.

import "time"

// Config is what the batcher's settings were; serve.Server.SetBatching
// takes one and ignores it.
type Config struct {
	Window   time.Duration
	MaxBatch int
}

// DefaultMaxBatch and DefaultWindow are the values the benchmark
// passes to SetBatching.
const (
	DefaultMaxBatch = 256
	DefaultWindow   = 2 * time.Millisecond
)

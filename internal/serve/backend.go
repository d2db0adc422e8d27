package serve

import (
	"context"

	"tgopt/internal/batcher"
	"tgopt/internal/core"
	"tgopt/internal/graph"
)

// backend is the compute plane under the handlers, one per params
// version. *shard.Core (one engine over the server's graph) and
// *shard.Router (N cores over that graph behind a scatter-gather) both
// satisfy it as they are; their methods say what each call means there.
// Engines and Batchers are the cores' parts, which a scrape reads
// (stats.go). Up counts the cores that take calls, and OnDown is how the
// server learns that one went down (swap.go's restart).
type backend interface {
	EmbedRows(ctx context.Context, nodes []int32, ts []float64) (slab []float32, degraded []int, err error)
	Apply(e graph.Edge, res graph.IngestResult) int
	SaveSnapshot() error
	WarmStart() (warmed int, err error)
	Engines() []*core.Engine
	Batchers() []*batcher.Batcher
	Up() int
	OnDown(f func())
}

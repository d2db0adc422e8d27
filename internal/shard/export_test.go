package shard

// The chaos tests (package shard_test) crash shards of a pool that a
// serve.Server runs, since the server owns the restart; they read the
// fixtures of this package's tests through these names.
var (
	ModelForTest  = testModel
	EdgesForTest  = testEdges
	SeededDynamic = seededDynamic
	ReferenceSlab = referenceSlab
	EmbedQuery    = embedQuery
)

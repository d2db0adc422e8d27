#!/usr/bin/env bash
# Tier-1 verification plus race checks for the concurrency-sensitive
# packages (the parallel runtime, the serving middleware, the request
# micro-batcher, the sharded cache, the shard router, and the mutable
# dynamic graph) and
# the crash-safety suites (checkpoint envelope, fault injection, trainer
# resume). Run on every PR.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet (asmdecl checks the .s files against their Go declarations) + gofmt"
go vet ./...
test -z "$(gofmt -l .)" || { echo "gofmt -l . prints:"; gofmt -l .; exit 1; }

echo "== go build"
go build ./...

echo "== one backend (internal/serve asks its backend, never which backend it has)"
nontest() { ls "$1"/*.go | grep -v _test.go; }
if grep -nE 'router (!=|==) nil|engine (!=|==) nil' $(nontest internal/serve); then
    echo "internal/serve forks on its backend again: the lines above"; exit 1
fi
for pkg in batcher core serve shard tgat; do
    printf '   non-test lines, internal/%s: %s\n' "$pkg" "$(cat $(nontest internal/$pkg) | wc -l)"
done

echo "== one graph (every shard's core samples the server's graph; internal/shard builds and writes none of its own)"
if grep -nE 'graph\.NewDynamic\(|\.Ingest\(' $(nontest internal/shard); then
    echo "internal/shard keeps a graph of its own again: the lines above"; exit 1
fi

echo "== one dedup (the engine's §4.1 filter; the batcher concatenates, and no engine hook reaches into it)"
if grep -nE 'RetireTargets|SetInvalidationHook|map\[uint64\]\*flight' $(nontest internal/batcher) $(nontest internal/core) $(nontest internal/shard); then
    echo "single-flight attach or its invalidation hook is back: the lines above"; exit 1
fi

echo "== one version holder (tgat.Model carries the params version; the engine, the shards and the server copy none)"
if grep -nE '(modelVersion|version) +atomic\.Uint64' internal/core/engine.go $(nontest internal/shard) $(nontest internal/serve); then
    echo "a second stored params version: the lines above"; exit 1
fi
if grep -n 'ModelVersion' internal/core/engine.go; then
    echo "internal/core/engine.go copies the params version again: the lines above"; exit 1
fi

echo "== one cache tier (core.Cache is one in-RAM table: no disk tier, nothing promoted or demoted between tiers)"
if grep -niE 'SpillStore|CacheSpill|spill|promote' $(nontest internal/core) $(nontest internal/serve) $(nontest internal/shard) $(find cmd -name '*.go' ! -name '*_test.go'); then
    echo "a second cache tier is back: the lines above"; exit 1
fi

echo "== one pack per params version (the engine's layer pass and score head read packs built in NewEngine/FinishSwap, never repack)"
if grep -nE 'PackLinear|LayerForwardWith|model\.ScoreWith' $(nontest internal/core); then
    echo "internal/core reaches a per-call weight pack again: the lines above"; exit 1
fi

echo "== the engine gathers no layer input (the layer pass reads feature tables and deduplicated rows in place; one DedupInvertWith restores the caller's batch)"
if grep -n 'gatherRows32' $(nontest internal/core); then
    echo "internal/core gathers a layer input again: the lines above"; exit 1
fi
engine_files=$(nontest internal/core | grep -v '/dedup.go$')
if [ "$(grep -h 'DedupInvertWith(' $engine_files | wc -l)" -gt 1 ]; then
    grep -n 'DedupInvertWith(' $engine_files
    echo "internal/core re-expands a level below the top again: the lines above"; exit 1
fi

echo "== go test"
go test ./...

echo "== go test -race (concurrency-sensitive + fault-injection packages)"
race_start=$SECONDS
go test -race ./internal/parallel/... ./internal/serve/... ./internal/core/... \
    ./internal/batcher/... ./internal/graph/... ./internal/shard/... \
    ./internal/stats/... ./internal/checkpoint/... ./internal/faultfs/... \
    ./internal/trainer/... ./internal/tensor/... ./internal/nn/... ./internal/tgat/...
# The fused layer pass, the row-parallel time encoding and the pooled
# fork-join state at one, two and four Ps: the bitwise row-independence
# and parallel-vs-serial pins must hold whatever the scheduler does.
go test -race -count=1 -cpu 1,2,4 \
    -run 'TestLayer|TestAttentionRowIndependence|TestTimeTableParallel|TestTimeTableEncodeAllocs|TestLinearRows|TestKernelAllocs|TestForChunked' \
    ./internal/parallel/ ./internal/tensor/ ./internal/nn/ ./internal/tgat/ ./internal/core/
# Late edges and deletes shift adjacency in place under the write lock;
# a sampler reads it only under the read lock. The torn-read checks must
# hold at one, two and four Ps.
go test -race -count=1 -cpu 1,2,4 \
    -run 'TestDynamicConcurrentMutationsAndSampling|TestDynamicLateEditsAtHubAllocateNothing' ./internal/graph/
# The top-layer memo's bitwise pins and its readers-vs-writers stress
# test, repeated: a stamp race shows only on some schedules.
go test -race -count=5 -run 'TopMemo' ./internal/core ./internal/serve ./internal/shard
# The row-text memo under concurrent store/hit/evict, the encoders' byte
# identity, and the batcher's one-channel-per-cohort publication.
go test -race -count=3 -run 'TestWire|TestBatcher' ./internal/serve ./internal/batcher
echo "   race stanza wall time: $((SECONDS - race_start)) s"

echo "== portable kernels (the scalar leaves run, not just compile: purego tests, arm64 cross-build of the generic files)"
portable_start=$SECONDS
go test -count=1 -tags purego ./internal/tensor/ ./internal/nn/ ./internal/tgat/ ./internal/core/
GOOS=linux GOARCH=arm64 go build ./...
echo "   portable stanza wall time: $((SECONDS - portable_start)) s"

echo "== shard chaos gate (panic injection, breaker cycle, restart-from-snapshot, every handler contract on all four backends; race-enabled)"
go test -race -count=1 -run 'TestChaos|TestRouter|TestBreaker|TestCore|TestBackend|TestServeSharded|TestServeHealth|TestServeWarmStart' \
    ./internal/shard/... ./internal/serve/...

echo "== cache admission and counters (TinyLFU vs FIFO, lookups == hits + misses under concurrent lookup/store/remove; race-enabled, repeated)"
go test -race -count=5 -run 'TestTinyLFU|TestZipfTrace|TestFreqSketch|TestCacheStatsInvariant|TestCacheConcurrent|TestCacheWriteToConcurrentStores|TestEngineCacheStatsAggregates' ./internal/core/

echo "== deep-invalidation gate (3-layer transitive invalidation exactness, index retirement at the watermark; race-enabled)"
go test -race -count=1 -run 'TestTransitive|TestSupport|TestServeOutOfOrderIngestConvergesToSortedDeep|TestIndexRetire|TestTargetIndexPrunesEvictedKeys|TestCollectUpperMatchesAcrossIntegerFloor|TestDynamicSetLatenessAfterEdgePanics|TestRouterSnapshotReplayBelowWatermark' \
    ./internal/core/ ./internal/serve/ ./internal/graph/ ./internal/shard/

echo "== hot-swap gate (atomic model swap under load: no mixed-version rows, no stale cache; race-enabled)"
go test -race -count=1 -run 'TestServeSwap|TestRouterSwap|TestRestartAfterSwap|TestEngineSwap|TestCacheSnapshotVersion' \
    ./internal/serve/ ./internal/shard/ ./internal/core/
go test -count=1 -run 'TestPublishLatest|TestLatestRejects|TestFineTune' ./internal/swap/

echo "== one row format (the memo cache, its snapshots and the time table hold float32 rows: no int8 format, no entry codec, no byte-budget knob)"
if grep -rnE 'QuantInt8|QuantMode|TGQ1|QuantizeVec|entryCodec|CacheBudgetBytes' --include='*.go' .; then
    echo "a second row format is back: the lines above"; exit 1
fi

echo "== bench smoke (compile + one iteration of every benchmark)"
go test -run='^$' -bench=. -benchtime=1x ./internal/tensor/ ./internal/core/ ./internal/graph/ > /dev/null

echo "== benchmark smoke (go test ./benchmark: every workload's code path at small op counts, BENCHMARK.json in step with metrics.go)"
go test -count=1 ./benchmark

echo "== fuzz smoke (persistence parsers, ingest bodies, the response encoders, the cosine kernel; seed corpus + 5s each)"
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/checkpoint/
go test -run='^$' -fuzz='^FuzzCacheReadFrom$' -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz='^FuzzLoadParams$' -fuzztime=5s ./internal/tgat/
go test -run='^$' -fuzz='^FuzzIngest$' -fuzztime=5s ./internal/serve/
go test -run='^$' -fuzz='^FuzzWireEncode$' -fuzztime=5s ./internal/serve/
go test -run='^$' -fuzz='^FuzzTransitiveInvalidate$' -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz='^FuzzSwapManifest$' -fuzztime=5s ./internal/swap/
go test -run='^$' -fuzz='^FuzzCosRow$' -fuzztime=5s ./internal/tensor/

echo "OK (total wall time: ${SECONDS} s)"

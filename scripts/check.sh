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

echo "== no fused multiply-add in the vector kernels (DESIGN.md §6.3: every product and every sum rounds on its own, so the bitwise tests are not the only guard)"
fma=$(grep -ci vfmadd internal/tensor/kernels_amd64.s || true)
[ "$fma" = 0 ] || { echo "grep -ci vfmadd internal/tensor/kernels_amd64.s prints $fma, want 0:"; grep -ni vfmadd internal/tensor/kernels_amd64.s; exit 1; }

echo "== go build"
go build ./...

echo "== one of each (grep gates: a mechanism a past change deleted or folded into one stays gone)"
nontest() { ls "$1"/*.go | grep -v _test.go; }
# scope WORD...: the Go files a gate reads. "all" is every .go file,
# tests included; "nontest" every non-test .go file; a directory its
# non-test .go files, subdirectories included; a file itself; "-FILE"
# drops FILE from the list, "-DIR" every .go file under DIR.
scope() {
    local w files=() drop=()
    for w in "$@"; do
        case $w in
            all) files+=($(find . -name '*.go' -not -path './.git/*')) ;;
            nontest) files+=($(find . -name '*.go' ! -name '*_test.go' -not -path './.git/*')) ;;
            -*) w=${w#-}; if [ -d "$w" ]; then drop+=($(find "$w" -name '*.go')); else drop+=("$w"); fi ;;
            *) if [ -d "$w" ]; then files+=($(find "$w" -name '*.go' ! -name '*_test.go')); else files+=("$w"); fi ;;
        esac
    done
    printf '%s\n' "${files[@]}" | grep -vxF -f <(printf '%s\n' "${drop[@]:-/}")
}
# One gate a row, tab-separated: what must stay single, the grep flags
# (-E, or -iE to ignore case), the ERE, the scope, the failure message,
# and how many matching lines are allowed (blank: none).
gates_failed=0
while IFS=$'\t' read -r what flags pattern where message max; do
    [ -z "$what" ] && continue
    hits=$(grep -nH $flags -- "$pattern" $(scope $where) </dev/null || true)
    if [ "$(printf '%s' "$hits" | grep -c .)" -gt "${max:-0}" ]; then
        echo "   $what:"; printf '%s\n' "$hits"
        echo "$message: the lines above"; gates_failed=1
    fi
done <<'GATES'
one backend (internal/serve asks its backend, never which backend it has)	-E	router (!=|==) nil|engine (!=|==) nil	internal/serve	internal/serve forks on its backend again
one graph (every shard's core samples the server's graph; internal/shard builds and writes none of its own)	-E	graph\.NewDynamic\(|\.Ingest\(	internal/shard	internal/shard keeps a graph of its own again
one dedup (the engine's §4.1 filter; the batcher concatenates, and no engine hook reaches into it)	-E	RetireTargets|SetInvalidationHook|map\[uint64\]\*flight	internal/batcher internal/core internal/shard	single-flight attach or its invalidation hook is back
one version holder (tgat.Model carries the params version; the engine, the shards and the server copy none)	-E	(modelVersion|version) +atomic\.Uint64	internal/core/engine.go internal/shard internal/serve	a second stored params version
one version holder (the engine copies no model version)	-E	ModelVersion	internal/core/engine.go	internal/core/engine.go copies the params version again
one publish (a params version is a value: no swap barrier)	-E	swapGate|swapMu|SwapLock|SwapUnlock|FinishSwap|CommitSwap|ApplyParams	nontest	a params swap mutates a served model or fences readers again
one cache tier (core.Cache is one in-RAM table: no disk tier, nothing promoted or demoted between tiers)	-iE	SpillStore|CacheSpill|spill|promote	internal/core internal/serve internal/shard cmd	a second cache tier is back
one pack per params version (the engine's layer pass and score head read packs built in NewEngine, and /v1/score the pack built with its params version, never repack)	-E	PackLinear|LayerForwardWith|model\.ScoreWith	internal/core internal/serve	internal/core or internal/serve reaches a per-call weight pack again
the engine gathers no layer input (the layer pass reads feature tables and deduplicated rows in place)	-E	gatherRows32	internal/core	internal/core gathers a layer input again
the engine gathers no layer input (one DedupInvertWith restores the caller's batch)	-E	DedupInvertWith\(	internal/core -internal/core/dedup.go	internal/core re-expands a level below the top again	1
one row format (the memo cache, its snapshots and the time table hold float32 rows: no int8 format, no entry codec, no byte-budget knob)	-E	QuantInt8|QuantMode|TGQ1|QuantizeVec|entryCodec|CacheBudgetBytes	all	a second row format is back
one row store (each layer cache shard is a slab: rows in fixed chunks, slots in an intrusive age list; no per-entry row slices, dead marks, lazy compaction or overhead guess)	-E	map\[uint64\]\[\]float32|markPoppedLocked|compactLocked|cacheEntryOverhead|ndead	internal/core	a second row store is back in internal/core
one invalidation rule (every edge write runs Engine.InvalidateEdge; its two forwards serve only benchmark/serving_trace.go)	-E	\.Invalidate(Append|LateEdge)\(	all -./benchmark/serving_trace.go	an edge write calls a second invalidation entry point again
one invalidation rule (InvalidateEdge is invalidateNewer's one caller)	-E	\.invalidateNewer\(	internal/core	a second path reaches the selective invalidation body	1
one invalidation index (every cache-enabled engine over a live graph keeps one window index per cached layer, targets and sampled neighbours in one record list; no second index, dependency tracker, tracking or cache-shard option)	-E	DepTracker|TrackDependencies|TrackTargets|KeysForNode|KeysForEdge|clearDeepCaches|CacheShards|TargetIndex|SupportIndex|CollectNewer|CollectWindow|SupportsFor|TargetsFor	all	a second invalidation structure or a tracking option is back
one snapshot format (no sidecar, no per-shard params parse)	-E	posVersion|writeWatermark|readWatermark|SwapFS|PrepareSwap	all	a second snapshot validity record or a per-shard params parse is back
one snapshot rule (a load keeps a row only if it would read the same inputs: no edge replay)	-E	EdgesFrom	nontest	the snapshot's edge replay is back
one snapshot rule (the snapshot carries no graph watermark)	-E	Watermark\(\)	internal/core/persist.go	the snapshot's watermark stamp is back
one shard health rule (up or crashed: no circuit breaker, no quorum knob, no hedged reads)	-E	Breaker|HedgeDelay|hedgeDelayFor|Quorum	internal/shard internal/serve cmd	a second shard health rule is back
one admission rule (the memo cache admits every store: no frequency sketch, no admission filter)	-E	freqSketch|admitRejected|CacheTinyLFU	internal/core internal/serve cmd	an admission filter is back in the memo cache
one key loop (core.ComputeKeysInto runs serially: a key is cheaper than a fan-out)	-E	computeKeysParallelThreshold	nontest	ComputeKeysInto fans out again
one cache walk (a core.Cache call walks its keys in order on the caller's goroutine, so the rows it evicts are a function of the calls)	-E	cacheParallelThreshold	nontest	core.Cache fans a call out again
one device model (the engine counts, internal/device prices)	-E	internal/device|CacheOnDevice|chargeTransfer|OpKind	internal/core	internal/core prices device work again
one instrument (each engine owns its per-op table; nothing injects a Collector or a HitRate into the engine or the model)	-E	[A-Za-z0-9_] +\*stats\.(Collector|HitRate)|stats\.HitRate	internal/core internal/tgat	an injected instrument is back in internal/core or internal/tgat
one time encoding pass (the engine encodes Δt in the layer tile: no delta slab, no fork-join of its own)	-E	encodeDeltas|\.EncodeIntoWith\(	internal/core -internal/core/timetable.go	internal/core encodes Δt outside the layer pass again
one flush rule (a queued request runs when a pass ends: no window timer, no size trigger, no batcher settings)	-E	AfterFunc|flushWindow|flushSize|timerArmed|batch-window|batch-max|Batch\.(Window|MaxBatch)	internal/batcher internal/shard internal/serve cmd -internal/batcher/benchcompat.go -internal/serve/benchcompat.go	a second flush trigger or a batcher setting is back
one constructor (serve.NewFromConfig builds every server; New, NewSharded and SetBatching serve benchmark/ alone)	-E	serve\.New\(|NewSharded\(|\.SetBatching\(	all -./benchmark -./internal/serve/benchcompat.go	a server is built or batched outside NewFromConfig
one constructor (inside package serve too)	-E	(^|[^A-Za-z0-9_.])New\(	./internal/serve/*.go -./internal/serve/benchcompat.go	package serve builds a server outside NewFromConfig
one histogram (Histogram and CountHistogram are typed fronts over one bucketing function and one atomic bucket array)	-E	func [A-Za-z]*[bB]ucketIdx\(|\[[A-Za-z]*[bB]uckets \+ 1\]atomic	internal/stats	a second histogram implementation is back in internal/stats	2
one scrape (internal/shard sums no batcher: serving's scrape sums each once)	-E	batcher\.Snapshot	internal/shard	internal/shard re-sums the batchers again
one scrape (internal/serve reads its engines' and batchers' figures in Server.scrape alone, one line each)	-E	\.(LayerCacheStats|TopMemoStats|StageStats|Occupancy|QueueWait)\(|newEngineTotals|newBatchTotals	internal/serve	a second pass gathers engine or batcher totals in internal/serve	5
one restart (a core that panics goes down for good, and the server replaces its version as a swap does: internal/shard rebuilds no core of its own)	-E	restartOnce|WaitRestarts|restartBackoff|setCore|rebuildDone	internal/shard	a shard supervisor is back in internal/shard
one compute path per core (every core's pass is its batcher's: no unbatched pass beside it, no switch between them, no core without a batcher)	-E	errCorePanic|Batching +bool|batch-off|bat (==|!=) nil	internal/shard internal/serve cmd	a second compute path or a batching switch is back in a core
one write gate (no engine pass overlaps a gated graph write: no pass fence, no store rollback or skip counter, no ingest mutex, no graph change counters)	-E	passFence|staleFor|StaleStoreSkips|staleSkips|ingestMu|\.Mutations\(\)|\.Appends\(\)	nontest	a lock-free fence against graph writes, or an ingest mutex, is back
GATES
[ "$gates_failed" = 0 ] || exit 1
# Flag ratchet: tgopt-serve defines at most this many flags. A change
# may lower the limit; it may not raise it.
max_serve_flags=22
serve_flags=$(grep -oE '\bflag\.[A-Z][A-Za-z0-9]*\(' cmd/tgopt-serve/main.go | grep -vc '^flag\.Parse(' || true)
echo "   tgopt-serve flags: $serve_flags (at most $max_serve_flags)"
[ "$serve_flags" -le "$max_serve_flags" ] || { echo "cmd/tgopt-serve/main.go defines $serve_flags flags, over the limit of $max_serve_flags"; exit 1; }
# Size ratchet: DESIGN.md describes the present in at most this many
# lines, and CHANGES.md keeps each change in about 1.5 KB. A change may
# lower a limit; it may not raise it.
max_design_lines=1400
max_changes_bytes=60000
design_lines=$(wc -l < DESIGN.md)
changes_bytes=$(wc -c < CHANGES.md)
echo "   DESIGN.md lines: $design_lines (at most $max_design_lines); CHANGES.md bytes: $changes_bytes (at most $max_changes_bytes)"
[ "$design_lines" -le "$max_design_lines" ] || { echo "DESIGN.md has $design_lines lines, over the limit of $max_design_lines"; exit 1; }
[ "$changes_bytes" -le "$max_changes_bytes" ] || { echo "CHANGES.md has $changes_bytes bytes, over the limit of $max_changes_bytes"; exit 1; }
for dir in internal/*/; do
    printf '   non-test lines, %s: %s\n' "${dir%/}" "$(cat $(nontest "${dir%/}") | wc -l)"
done
printf '   non-test lines, module: %s\n' "$(cat $(scope nontest) | wc -l)"

echo "== -run guard (every alternative of every -run pattern below matches a test, fuzz target, example or benchmark in the packages its line names: go test passes silently on a pattern that matches nothing)"
# run_lines prints PATTERN<TAB>PACKAGES for every go test line of this
# script with a -run flag, continuation lines joined; '^$' runs nothing
# on purpose and is skipped.
run_lines() {
    sed -e ':a' -e '/\\$/N; s/\\\n//; ta' scripts/check.sh | grep -E '^ *go test .*-run[= ]' | while read -r line; do
        pattern=$(printf '%s\n' "$line" | sed -E "s/.*-run[= ]'?([^' ]*)'?.*/\\1/")
        [ "$pattern" = '^$' ] && continue
        printf '%s\t%s\n' "$pattern" "$(printf '%s\n' "$line" | grep -oE '\./[^ ]*' | tr '\n' ' ')"
    done
}
run_guard_failed=0
while IFS=$'\t' read -r pattern pkgs; do
    names=$(go test -list '.*' $pkgs | grep -E '^(Test|Fuzz|Example|Benchmark)')
    IFS='|' read -ra alts <<< "$pattern"
    for alt in "${alts[@]}"; do
        if ! printf '%s\n' "$names" | grep -qE -- "${alt%%/*}"; then
            echo "   -run alternative '$alt' matches nothing in $pkgs"; run_guard_failed=1
        fi
    done
done < <(run_lines)
[ "$run_guard_failed" = 0 ] || exit 1

echo "== reachability and docs-name gate (every function, method and type in a non-test file is reached from a main, an init, a package-level var, package tgopt's API, another package's test, or the allowlist; every Go name backticked in DESIGN.md, README.md and EXPERIMENTS.md resolves to a declaration: scripts/deadcode.go)"
deadcode_start=$SECONDS
# The fixture module plants one unreached function among a used one, a
# method reached through an interface and a function only another
# package's test calls, and a README naming one declared and one stale
# name beside a history block: the gate must exit 1 listing exactly
# lib.Unused and the stale lib.Gone.
rc=0
planted=$(cd scripts/testdata/deadcode && go run ../../deadcode.go 2>/dev/null) || rc=$?
if [ "$rc" != 1 ] || [ "$(printf '%s\n' "$planted" | awk '{print $2}' | tr '\n' ' ')" != 'Unused lib.Gone ' ]; then
    echo "deadcode on scripts/testdata/deadcode exited $rc, listing (want exit 1, lib.Unused and the doc name lib.Gone alone):"
    printf '%s\n' "$planted"; exit 1
fi
go run scripts/deadcode.go
echo "   reachability stanza wall time: $((SECONDS - deadcode_start)) s"

echo "== go test"
go test ./...

echo "== deterministic experiments (every internal/experiments verdict reads counts or counts priced by internal/device, never a clock: twenty repeats)"
experiments_start=$SECONDS
go test -count=20 ./internal/experiments
echo "   experiments stanza wall time: $((SECONDS - experiments_start)) s"

echo "== go test -race (concurrency-sensitive + fault-injection packages)"
race_start=$SECONDS
go test -race ./internal/parallel/... ./internal/serve/... ./internal/core/... \
    ./internal/batcher/... ./internal/graph/... ./internal/shard/... \
    ./internal/stats/... ./internal/checkpoint/... ./internal/faultfs/... \
    ./internal/trainer/... ./internal/tensor/... ./internal/nn/... ./internal/tgat/...
# The fused layer pass (dense and encoding its own Δt), the row-parallel
# time encoding and the pooled fork-join state, plain and worker-indexed,
# at one, two and four Ps: the bitwise row-independence and
# parallel-vs-serial pins must hold whatever the scheduler does.
go test -race -count=1 -cpu 1,2,4 \
    -run 'TestLayer|TestLayerEncodingPassMatchesComposedOpsBitwise|TestAttentionRowIndependence|TestTimeTableParallel|TestTimeTableEncodeAllocs|TestTimeTableLayerPassBitwise|TestLinearRows|TestKernelAllocs|TestForChunked|TestForWorkers' \
    ./internal/parallel/ ./internal/tensor/ ./internal/nn/ ./internal/tgat/ ./internal/core/
# Late edges and deletes shift adjacency in place under the write lock;
# a sampler reads it only under the read lock. The torn-read checks must
# hold at one, two and four Ps.
go test -race -count=1 -cpu 1,2,4 \
    -run 'TestDynamicConcurrentMutationsAndSampling|TestDynamicLateEditsAtHubAllocateNothing' ./internal/graph/
# The top-layer memo's parked-pass pin and its L = 3 readers-vs-writers
# stress test under the write gate, repeated at two and four Ps: a race
# between a pass and a write shows only on some schedules.
go test -race -count=5 -cpu 2,4 -run 'TopMemo' ./internal/core ./internal/serve ./internal/shard
# The row-text memo under concurrent store/hit/evict, the encoders' byte
# identity, and the batcher's one-channel-per-cohort publication, at
# one, two and four Ps: the batcher runs one inline pass per P before
# any request queues, so each slot count drives a different queue.
go test -race -count=3 -cpu 1,2,4 -run 'TestWire|TestBatcher' ./internal/serve ./internal/batcher
# A router leg must end at its deadline budget even when the stalled
# pass is the batcher's inline one: slots = GOMAXPROCS decides which
# passes run inline, so each P count drives a different mix.
go test -race -count=1 -cpu 1,2,4 -run 'TestRouterStalledOwnerDegrades|TestRouterDeadlineNeverHangs' ./internal/shard
echo "   race stanza wall time: $((SECONDS - race_start)) s"

echo "== portable kernels (the scalar leaves run, not just compile: purego tests, arm64 cross-build of the generic files)"
portable_start=$SECONDS
go test -count=1 -tags purego ./internal/tensor/ ./internal/nn/ ./internal/tgat/ ./internal/core/
GOOS=linux GOARCH=arm64 go build ./...
echo "   portable stanza wall time: $((SECONDS - portable_start)) s"

echo "== shard chaos gate (panic injection, a core going down, the server's restart of its version, routing around a down shard, restart-from-snapshot, every handler contract on all four backend modes; race-enabled)"
# TestCore and TestRouter include the one path's panic and cancel pins,
# TestCorePassPanicIsErrPassPanicked and TestRouterLegCancelableMidPass.
# TestChaos drives a pool through a serve.Server (internal/shard's
# external tests); TestServeCorePanic and TestServeRestart a single core.
go test -race -count=1 -run 'TestChaos|TestRouter|TestCore|TestBackend|TestServeSharded|TestServeHealth|TestServeSnapshotWith|TestServeWarmStart|TestServeCorePanic|TestServeRestart' \
    ./internal/shard/... ./internal/serve/...

echo "== cache eviction and counters (CLOCK's second chance, CLOCK >= FIFO on a Zipf trace and on an evicting engine stream, lookups == hits + misses under concurrent lookup/store/remove; race-enabled, repeated)"
go test -race -count=5 -run 'TestClockKeepsReferencedRow|TestZipfTrace|TestEngineClockHits|TestCacheStatsInvariant|TestCacheConcurrent|TestCacheWriteToConcurrentStores|TestEngineCacheStatsAggregates|TestCacheMatchesReferenceModel|TestCacheSnapshotWritesEachEntryOnce' ./internal/core/
# A call of thousands of keys evicts the same rows in the same order at
# one, two and four Ps.
go test -race -count=1 -cpu 1,2,4 -run 'TestCacheLargeCallIsAFunctionOfItsInputs' ./internal/core/

echo "== deep-invalidation gate (transitive invalidation, index retirement at the watermark; race-enabled; the engine oracle's seed corpus runs once, in the race stanza)"
go test -race -count=1 -run 'TestInvalidate|TestSupport|TestReadBetween|TestServeOutOfOrderIngestConvergesToSortedDeep|TestIndexRetire|TestWindowIndex|TestCollectUpperMatchesAcrossIntegerFloor|TestDynamicSetLatenessAfterEdgePanics|TestRouterSnapshotReplayBelowWatermark|TestRouterRestartReplaysFromWatermark|TestServeWarmStartMatchesColdServer' \
    ./internal/core/ ./internal/serve/ ./internal/graph/ ./internal/shard/

echo "== hot-swap gate (atomic model swap under load: no mixed-version rows, no stale cache; race-enabled; the engine oracle's swap step runs in the race stanza)"
go test -race -count=1 -run 'TestServeSwap|TestRouterSwap|TestRestartAfterSwap' \
    ./internal/serve/
go test -count=1 -run 'TestPublishLatest|TestLatestRejects|TestFineTune' ./internal/swap/

echo "== bench smoke (compile + one iteration of every benchmark)"
go test -run='^$' -bench=. -benchtime=1x ./internal/tensor/ ./internal/core/ ./internal/graph/ > /dev/null

echo "== benchmark smoke (go test ./benchmark: every workload's code path at small op counts, BENCHMARK.json in step with metrics.go)"
go test -count=1 ./benchmark

echo "== fuzz smoke (persistence parsers, ingest bodies, the request decoder, the response encoders, the cosine kernel: seed corpus + 5s each; the engine oracle: 30s)"
go test -run='^$' -fuzz='^FuzzDecode$' -fuzztime=5s ./internal/checkpoint/
go test -run='^$' -fuzz='^FuzzCacheReadFrom$' -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz='^FuzzLoadParams$' -fuzztime=5s ./internal/tgat/
go test -run='^$' -fuzz='^FuzzIngest$' -fuzztime=5s ./internal/serve/
go test -run='^$' -fuzz='^FuzzDecodeRequest$' -fuzztime=5s ./internal/serve/
go test -run='^$' -fuzz='^FuzzWireEncode$' -fuzztime=5s ./internal/serve/
# The engine oracle: generated histories of writes, reads, snapshots and
# swaps, every answer bitwise the baseline's after every step. An input
# costs about 0.1 s, so minimizing each new one (60 s by default) would
# eat the whole budget: one execution each keeps 30 s exploring.
oracle_start=$SECONDS
go test -run='^$' -fuzz='^FuzzEngineOracle$' -fuzztime=30s -fuzzminimizetime=1x ./internal/core/
echo "   engine oracle fuzz wall time: $((SECONDS - oracle_start)) s"
go test -run='^$' -fuzz='^FuzzSwapManifest$' -fuzztime=5s ./internal/swap/
go test -run='^$' -fuzz='^FuzzCosRow$' -fuzztime=5s ./internal/tensor/

echo "OK (total wall time: ${SECONDS} s)"

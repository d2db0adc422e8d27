GO ?= go

.PHONY: build test check race benchmark benchmark-compare bench bench-serve bench-cache bench-quant bench-deep bench-swap microbench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full PR gate: vet + build + tests + race checks on the concurrency-
# sensitive packages (parallel runtime, serving middleware, cache).
check:
	./scripts/check.sh

race:
	$(GO) vet ./... && $(GO) test -race ./internal/parallel/... ./internal/serve/... ./internal/shard/...

# The repository's one benchmark (benchmark/README.md): all four
# workloads on seed 1, every end-to-end metric printed with its unit.
# The only basis for a performance claim.
benchmark:
	$(GO) run ./benchmark run -seed 1

# Compare two result files written by `go run ./benchmark run -o`:
#   make benchmark-compare BASE=base.json NEW=new.json
# One row per workload × metric; exits 1 on any "worse".
benchmark-compare:
	$(GO) run ./benchmark compare $(BASE) $(NEW)

# Committed perf artifact: kernel + end-to-end report as BENCH_<n>.json
# at the repo root (see scripts/bench.sh and DESIGN.md §9).
bench:
	./scripts/bench.sh

# Committed serving-path artifact: closed-loop HTTP load at several
# concurrency levels, cross-request batching off vs on (BENCH_2.json,
# see DESIGN.md §10).
bench-serve:
	$(GO) run ./cmd/tgopt-bench serve -o BENCH_2.json

# Committed cache-policy artifact: memo-cache hit rate vs byte budget
# on a Zipf-skewed trace, FIFO vs TinyLFU admission (BENCH_3.json, see
# DESIGN.md §12).
bench-cache:
	$(GO) run ./cmd/tgopt-bench cachesweep -o BENCH_3.json

# Committed quantized-path artifact: int8 vs float32 kernel MB/s,
# e2e ns/edge and cache hit rate at equal byte budgets, plus the AP
# delta from the accuracy harness (BENCH_4.json, see DESIGN.md §14).
bench-quant:
	./scripts/bench.sh quant

# Committed deep-invalidation artifact: 3-layer serving under live
# ingest, selective transitive invalidation vs the conservative deep
# clear — per-layer hit rates and ns/edge at several ingest rates
# (BENCH_5.json, see DESIGN.md §15).
bench-deep:
	./scripts/bench.sh deep

# Committed hot-swap artifact: online-learning swap under serving
# load — cache re-warm cost and swap pause at several cadences, plus
# bitwise post-swap spot checks (BENCH_6.json, see DESIGN.md §16).
bench-swap:
	./scripts/bench.sh swap

# In-place Go microbenchmarks (no artifact): the tensor kernel suite,
# then the attention kernel against its explicit-projection reference
# (absorbed vs batched-matmul, DESIGN.md §6.1).
microbench:
	$(GO) test -bench=. -benchmem ./internal/tensor/
	$(GO) test -run '^$$' -bench BenchmarkAttentionKernels -benchmem .

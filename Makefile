GO ?= go

.PHONY: build test check race benchmark benchmark-compare microbench

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

# In-place Go microbenchmarks (no artifact): the tensor kernel suite,
# then the attention kernel against its explicit-projection reference
# (absorbed vs batched-matmul, DESIGN.md §6.1).
microbench:
	$(GO) test -bench=. -benchmem ./internal/tensor/
	$(GO) test -run '^$$' -bench BenchmarkAbsorbedVsProjected -benchmem ./internal/nn/

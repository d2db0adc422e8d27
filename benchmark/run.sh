#!/usr/bin/env bash
# The driver's command: build the benchmark from source inside this
# checkout and run it with the arguments given. Everything the build
# writes — binary, Go build cache, toolchain config — stays under
# .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: the benchmark builds tgopt from source and needs a checkout of the repository" >&2
	exit 2
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/tgopt-benchmark ./benchmark
exec .bench_build/tgopt-benchmark "$@"

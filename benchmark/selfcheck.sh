#!/usr/bin/env bash
# Two alternating sets of runs of the working tree, compared with each
# other: the same code must come out "same" on every workload × metric,
# or the benchmark cannot tell a change from noise. Writes
# benchmark/results/selfcheck.json; exits non-zero unless every row is
# "same".
#
#   benchmark/selfcheck.sh [runs per set, default 5]
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-5}"
out=benchmark/out/selfcheck
mkdir -p "$out" benchmark/results
rm -f "$out/a.json" "$out/b.json"
go build -o "$out/benchmark" ./benchmark
for seed in $(seq 1 "$runs"); do
	"$out/benchmark" run -seed "$seed" -append -o "$out/a.json" >"$out/a-$seed.log"
	"$out/benchmark" run -seed "$seed" -append -o "$out/b.json" >"$out/b-$seed.log"
done
"$out/benchmark" compare -json benchmark/results/selfcheck.json -strict "$out/a.json" "$out/b.json"

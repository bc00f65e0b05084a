#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given.  Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, per-run scratch (spill runs,
# removed on exit) and the Chrome trace of the last traced run per workload.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: start it from the root of a checkout (no go.mod here)" >&2
	exit 2
fi

root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache"
export GOMODCACHE="$root/.bench_build/go-mod"
export GOTMPDIR="$root/.bench_build/tmp"
export GOENV=off GOTOOLCHAIN=local

go build -o "$root/.bench_build/benchmark" ./benchmark
exec "$root/.bench_build/benchmark" "$@"

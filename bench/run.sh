#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build
# writes (binary, Go build cache, temporary files) stays inside the
# checkout. Run from the root of the checkout:
#
#   bash bench/run.sh --workload small_chips --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh                      # the whole suite
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

# The benchmark is a module of its own that replaces the router's module
# by the parent directory; without the router's sources this fails.
go build -C "$root/bench" -o "$build/routerbench" .

# The benchmark reads ../BENCHMARK.json and writes out/ relative to its
# own directory.
cd "$root/bench"
exec "$build/routerbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything Go writes (build cache included) stays under
# .bench_build/ in the checkout root, which is where this script is run from.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
mkdir -p "$build"
(cd "$root/benchmark" && go build -o "$build/guanyu-benchmark" .)
exec "$build/guanyu-benchmark" "$@"

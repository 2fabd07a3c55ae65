#!/usr/bin/env bash
# Builds the benchmark and runs it from the checkout root. The compiler cache
# is kept under benchmark/out/ so that nothing outside the checkout is read or
# written; by hand, `go run ./benchmark` does the same with the user's cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/benchmark/out/build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/genax-benchmark" ./benchmark
exec "$build/genax-benchmark" "$@"

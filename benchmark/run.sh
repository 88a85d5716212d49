#!/usr/bin/env bash
# The driver's entry point: builds the benchmark inside the checkout and runs
# it with the arguments given. Everything the Go toolchain writes (build
# cache, temporary files, the binary) goes under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it and only the
# first run of a checkout pays for compiling.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"

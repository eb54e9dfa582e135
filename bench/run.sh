#!/usr/bin/env bash
# Builds the benchmark from source and runs one pass of one workload:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything the build writes (Go build cache,
# temporary files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"

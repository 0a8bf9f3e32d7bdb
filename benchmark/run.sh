#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness and the vignat
# daemon from source into .bench_build/ (build cache included, so nothing
# is written outside the checkout), then runs the harness with the
# arguments given. Run from the root of a checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/vigperf" . >&2
go build -C "$root" -o "$build/vignat" ./cmd/vignat >&2
exec "$build/vigperf" -daemon "$build/vignat" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload desktop --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and the binary all live under .bench_build there, so
# nothing outside the checkout is written. The build needs the whole
# repository: without it the build fails and no result is printed.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's own state (telemetry counters)
# inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
go -C "$root/benchmark" build -o "$build/overhaul-benchmark" .
exec "$build/overhaul-benchmark" "$@"

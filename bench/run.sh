#!/usr/bin/env bash
# One-command entry point: builds the harness from this checkout and runs
# it with the arguments given, e.g.
#
#   bash bench/run.sh --workload drain_mem --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the toolchain writes — the
# build cache, link scratch and the binary — stays under .bench_build/ in
# the checkout, and the harness keeps its own scratch under bench/out/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/alarmbench" .
exec "$build/alarmbench" "$@"

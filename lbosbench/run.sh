#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash lbosbench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the temporary
# build directory and the binary all live under .bench_build/ in that
# root, so the run writes nothing outside the checkout. A missing or
# broken repository fails the build, which exits non-zero before any
# result is printed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/modcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd "$root/lbosbench" && go build -o "$build/lbosbench" .)
exec "$build/lbosbench" "$@"

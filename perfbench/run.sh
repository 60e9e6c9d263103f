#!/usr/bin/env bash
# Builds the benchmark from source and runs one measurement. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload arith --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# benchmark binary and the campaigns' working files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
    echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are needed)" >&2
    exit 1
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/tmp" "$@"

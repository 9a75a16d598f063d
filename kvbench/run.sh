#!/usr/bin/env bash
# Builds kvbench from source and runs it from the repository root, which
# is where BENCHMARK.json names it from:
#
#   bash kvbench/run.sh --workload resident_read --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays inside the checkout, under
# .bench_build/: the binary, Go's build cache, and HOME (Go keeps its
# telemetry counters and its environment file under it).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"

export HOME="$build/home"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local # never fetch another toolchain

(cd "$here" && go build -o "$build/kvbench" .)
cd "$root"
exec "$build/kvbench" "$@"

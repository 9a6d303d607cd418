#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it,
# passing every argument through. Run it from the repository root:
#
#	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live in
# .bench_build/ under the root, so the run writes nowhere else.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOWORK=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"

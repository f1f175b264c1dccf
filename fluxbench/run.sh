#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash fluxbench/run.sh --workload fmd-tcp --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# included, stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$root/fluxbench" && go build -o "$out/fluxbench" .)
exec "$out/fluxbench" "$@"

#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload open-saturation --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fleet-slots --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the root of the checkout (Go build cache, binary, scratch files).
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --root "$root" "$@"

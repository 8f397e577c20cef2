#!/usr/bin/env bash
# Builds the round benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash roundbench/run.sh --workload paper-inproc --seed 1 --seconds 20 --trace 0
# Every build artifact, cache and span file stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
export GOMAXPROCS="$(nproc)"
go build -C "$root/roundbench" -o "$out/roundbench" . >&2
exec "$out/roundbench" "$@"

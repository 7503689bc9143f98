#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash ptbench/run.sh --workload gravity --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, the
# binary) goes under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/ptbench" && go build -o "$out/ptbench" .)
cd "$root"
exec "$out/ptbench" "$@"

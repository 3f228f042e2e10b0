#!/usr/bin/env bash
# Builds the benchmark and shadowd from the checkout's source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-fig11 --seed 1 --seconds 20 --trace 0
#
# Everything it writes (binaries, Go build cache, span logs) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
go -C "$root" build -o "$out/shadowd" ./cmd/shadowd >&2
exec "$out/perfbench" -shadowd "$out/shadowd" -out "$out" "$@"

#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload window --seed 1 --seconds 15 --trace 0
# Build products and run records stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash benchmark/run.sh --workload square-bucket --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache, spill files and span dumps all stay
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" "$@"

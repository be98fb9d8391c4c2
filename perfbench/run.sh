#!/usr/bin/env bash
# Builds the op-stream benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload conn-churn --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# $CARGO_TARGET_DIR (default .bench_build) so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .

exec "$out/perfbench" --out "$out" "$@"

#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash e2ebench/run.sh --workload analyst_mdrq --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# WAL logs of a run all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
E2EBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export E2EBENCH_COMMIT
exec "$out/e2ebench" "$@"

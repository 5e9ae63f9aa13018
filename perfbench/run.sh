#!/usr/bin/env bash
# Builds the benchmark and sxnmd from this checkout, then runs the
# benchmark with the arguments given, for example:
#
#   bash perfbench/run.sh --workload movies-w3 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, the Go build cache included.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root" && go build -o "$build/sxnmd" ./cmd/sxnmd)
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -sxnmd "$build/sxnmd" "$@"

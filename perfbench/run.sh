#!/usr/bin/env bash
# Builds the benchmark and the diogenes CLI from the sources of the checkout
# it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the scratch files of a run stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/diogenes" diogenes/cmd/diogenes) >&2

exec "$out/perfbench" -root "$root" -bin "$out/diogenes" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through (see README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload attach-churn --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root, so
# a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"

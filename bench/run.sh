#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the command BENCHMARK.json
# names. Run from the repository root:
#
#   bash bench/run.sh --workload tpcc_commit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temp files and the binary under .bench_build/, traces under
# bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/wattdb-ledger" .
cd "$root/bench"
exec "$build/wattdb-ledger" "$@"

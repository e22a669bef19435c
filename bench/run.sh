#!/usr/bin/env bash
# Entry point of the benchmark (see BENCHMARK.json). Run from the
# repository root:
#
#   bash bench/run.sh --workload live-unaligned --seed 1 --seconds 10 --trace 0
#
# The benchmark may write only inside its checkout, so the Go build
# cache and the toolchain's temporary files are pointed at .bench_build/
# before handing over to the Go program.
set -euo pipefail
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp" GOFLAGS=-buildvcs=false
mkdir -p "$GOCACHE" "$GOTMPDIR"
exec go run ./bench "$@"

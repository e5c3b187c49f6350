#!/usr/bin/env bash
# run.sh — the entry point BENCHMARK.json names.
#
#   bash benchmark/run.sh --workload mesh64 --seed 7 --seconds 10 --trace 0
#
# It builds the benchmark once into .bench_build/ at the root of the checkout
# and runs it with the arguments given; `go run ./benchmark ...` from the
# repository root does the same without the build directory. Everything it
# writes, the Go build cache and the compiler's scratch space included, stays
# inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
# go build leaves an up-to-date binary alone, so later runs pay only the check.
go build -buildvcs=false -o .bench_build/bin/benchmark ./benchmark
exec .bench_build/bin/benchmark "$@"

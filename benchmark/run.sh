#!/bin/bash
# Runs the benchmark from a checkout of the repository:
#
#   bash benchmark/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Everything the go tool writes (build cache, home) is kept in .bench_build
# inside the checkout, so a run reads and writes nothing outside it. The
# first run in a fresh checkout therefore compiles the standard library.
set -eu
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/home"
export HOME="$root/.bench_build/home"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
cd "$root/benchmark"
go build -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" -root "$root" "$@"

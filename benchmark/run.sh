#!/usr/bin/env bash
# BENCHMARK.json's command. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload warm_repeat --seed 1 --seconds 10 --trace 0
#
# It builds the harness from benchmark/ and cmd/astore-serve from the
# checkout's sources, and runs the harness. Everything it writes, Go's build
# cache included, stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of an astore checkout (need go.mod and benchmark/go.mod)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local

go build -o "$build/astore-serve" ./cmd/astore-serve
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" -serve-bin "$build/astore-serve" "$@"

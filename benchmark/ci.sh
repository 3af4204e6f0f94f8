#!/usr/bin/env bash
# What a CI job calls to keep the benchmark honest. Run from anywhere.
#
#   benchmark/ci.sh         vet, unit tests and the smoke test (all five
#                           workloads at SF 0.01 for a second each, oracle on)
#   benchmark/ci.sh gate    the above, then the full pinned suite and
#                           -compare against the committed baseline.json;
#                           non-zero on a regression beyond a bound, a higher
#                           fail_ratio, a failed self-check or an oracle mismatch
#
# The gate only means something on the machine class baseline.json was
# measured on (its "env" block says which).
set -euo pipefail

cd "$(dirname "$0")"
go vet ./...
go test -count=1 ./...

if [ "${1:-}" = "gate" ]; then
	mkdir -p ../.bench_build
	(cd .. && bash benchmark/run.sh -seed 1 -out .bench_build/report.json)
	go run . -compare baseline.json ../.bench_build/report.json
fi

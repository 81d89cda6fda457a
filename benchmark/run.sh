#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"). Builds the
# server under test and the harness from source into .bench_build/,
# then hands every argument to the e2e load generator. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload knn-scan --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --all          # every workload, trace off then on
#   bash benchmark/run.sh --selfcheck    # two full sets, compared against the bounds
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/udbserver || ! -f BENCHMARK.json ]]; then
  echo "benchmark/run.sh: run from the root of a probprune checkout" >&2
  exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp"
# Everything the toolchain writes stays inside the checkout, and nothing
# is fetched: the modules have no dependencies outside this tree.
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/" ./cmd/udbserver ./cmd/udbgen
go build -C benchmark -o "$out/bin/" ./e2e ./layers

exec "$out/bin/e2e" -bin "$out/bin" "$@"

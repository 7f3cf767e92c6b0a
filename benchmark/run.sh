#!/usr/bin/env bash
# Build the analyzer and the benchmark from this checkout, then run the
# benchmark.  Arguments go to bench.exe, e.g.
#   bash benchmark/run.sh --workload suite --seed 1995 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's report goes to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/analyze.exe benchmark/bench.exe >&2
exec ./_build/default/benchmark/bench.exe "$@"

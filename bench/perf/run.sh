#!/bin/sh
# Build the benchmark from source, then run it with the given flags:
#   sh bench/perf/run.sh --workload paper-n7 --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result. Everything it writes
# stays under _build/ (the shared dune cache is off for the same reason).
set -eu
DUNE_CACHE=disabled dune build --root . ./bench/perf/dpu_perf.exe 1>&2
TMPDIR="$PWD/_build/perf-tmp"
export TMPDIR
mkdir -p "$TMPDIR"
exec ./_build/default/bench/perf/dpu_perf.exe "$@"

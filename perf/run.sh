#!/bin/sh
# Build the benchmark from source and run it from the repository root:
#   bash perf/run.sh --workload W --seed N --seconds S --trace 0|1
# The build goes to perf/.bench_build (dune takes a nested build
# directory only as an absolute path), or to $CARGO_TARGET_DIR when that
# is set, and its messages go to stderr, so the last line of stdout is
# the run's JSON result. The dune cache is off so nothing is written
# outside the checkout.
set -e
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-$PWD/perf/.bench_build}"
dune build --root . --build-dir "$build" --cache=disabled ./perf/main.exe 1>&2
exec "$build/default/perf/main.exe" "$@"

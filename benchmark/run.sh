#!/usr/bin/env bash
# Build the benchmark (lispbench.exe) from source, then run it with the given
# arguments.  Run from the repository root:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the
# JSON result of lispbench.  The dune cache is off so that nothing is
# written outside the checkout.
set -eu
export DUNE_CACHE=disabled
dune build --root . ./benchmark/lispbench.exe >&2
exec ./_build/default/benchmark/lispbench.exe "$@"

#!/bin/sh
# Build the adcopt CLI and the harness from source, then run the harness:
#   sh bench/adcbench/run.sh --workload serve-mix --seed 3 --seconds 20 --trace 0
# Run from the root of a checkout; build output goes to stderr. Dune's
# shared cache is off, so nothing is written outside the checkout.
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . ./bin/adcopt.exe ./bench/adcbench/adcbench.exe 1>&2
exec ./_build/default/bench/adcbench/adcbench.exe run "$@"

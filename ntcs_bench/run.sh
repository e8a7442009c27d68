#!/usr/bin/env bash
# Build ntcs_bench from the checkout it is run in, then run it with the
# given arguments. Run from the repository root:
#
#   bash ntcs_bench/run.sh --workload echo-lan --seed 1 --seconds 10 --trace 0
#
# The dune cache is disabled so the build reads and writes only _build/.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f ntcs_bench/dune ]; then
  echo "ntcs_bench: run from the root of an NTCS checkout (dune-project, lib/ and ntcs_bench/ are needed)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./ntcs_bench/ntcs_bench.exe 1>&2
exec ./_build/default/ntcs_bench/ntcs_bench.exe "$@"

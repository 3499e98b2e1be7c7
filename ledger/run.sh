#!/usr/bin/env bash
# Builds the ledger from source and runs it, from the root of a checkout:
#
#   bash ledger/run.sh --workload transfer --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the
# ledger's JSON result. The dune cache is off: the build writes only
# inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./ledger/ledger.exe 1>&2
exec ./_build/default/ledger/ledger.exe "$@"

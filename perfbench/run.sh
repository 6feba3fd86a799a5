#!/usr/bin/env bash
# Build the DSE benchmark from source and run it.
#
#   bash perfbench/run.sh --workload cold-proof --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. The build stays inside the checkout
# (dune's _build, shared cache off); the last line of stdout is the JSON
# result, and build chatter goes to stderr.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"

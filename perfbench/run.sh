#!/usr/bin/env bash
# Build the benchmark and the statleak CLI (the serve workload's daemon)
# from source in this checkout, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . -j 2 perfbench/main.exe bin/statleak_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to dune's _build; results and span logs to .perfbench/.
# The build fails, and the script exits non-zero without printing a
# result, when the engine's sources (lib/) are not beside it.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"

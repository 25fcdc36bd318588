#!/bin/sh
# Build sqp and the benchmark from this checkout, then run the benchmark:
#   sh perfbench/run.sh --workload range --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/main.ml ] || [ ! -d lib ]; then
  echo "perfbench: no sqp sources here (dune-project, bin/, lib/); run from a checkout of the repository" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bin/main.exe ./perfbench/bin/perfbench.exe 1>&2
exec ./_build/default/perfbench/bin/perfbench.exe --sqp ./_build/default/bin/main.exe "$@"

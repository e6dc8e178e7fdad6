#!/usr/bin/env bash
# Build the optimizer service and the benchmark client from source, then run
# the client with this script's arguments; see svcbench.ml for them. Build
# output goes to stderr so the last stdout line stays the client's result.
set -euo pipefail
dune build --root . --display quiet ./bin/orca_cli.exe ./svcbench/svcbench.exe 1>&2
exec ./_build/default/svcbench/svcbench.exe "$@"

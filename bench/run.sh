#!/bin/sh
# The command BENCHMARK.json names: build costload inside the benchmark's own
# module (bench/go.mod), then become it, so the process the driver started is
# the benchmark itself and a signal sent to it reaches the code that stops
# the daemons. Arguments pass through: --workload --seed --seconds --trace.
set -eu
cd "$(dirname "$0")"
mkdir -p out
go build -o out/costload ./costload
exec out/costload "$@"

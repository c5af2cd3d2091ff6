#!/bin/sh
# Regenerates a benchmark snapshot so the perf trajectory of the runtime is
# tracked in-tree. Two suites:
#
#   scripts/bench_json.sh [BENCH_INFERENCE.json] [inference]   hot-path kernels + plan encoder + request decoder + whole in-process /estimate request
#   scripts/bench_json.sh BENCH_SERVE.json serve               networked daemon
#
# Custom benchmark metrics (mean_batch/op, p99_ns/op, ...) are captured
# alongside ns/op into the JSON.
set -eu

out="${1:-BENCH_INFERENCE.json}"
suite="${2:-inference}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

case "$suite" in
inference)
    go test ./internal/core/ -run xxx \
        -bench 'BenchmarkForwardSingle|BenchmarkForwardPooled|BenchmarkPoolGetParallel|BenchmarkEstimateBatch|BenchmarkTrainEpochParallel|BenchmarkPublishDelta|BenchmarkServer|BenchmarkFitParallel' \
        -benchmem -benchtime=1s >"$tmp"
    go test ./internal/tensor/ -run xxx -bench . -benchmem -benchtime=1s >>"$tmp"
    go test ./internal/feature/ -run xxx -bench 'BenchmarkEncode' -benchmem -benchtime=1s >>"$tmp"
    go test ./internal/serve/ -run xxx -bench 'BenchmarkDecodeEstimate|BenchmarkHandleEstimate' -benchmem -benchtime=1s >>"$tmp"
    ;;
serve)
    go test ./internal/serve/ -run xxx -bench 'BenchmarkScheduler' \
        -benchmem -benchtime=1s >"$tmp"
    ;;
*)
    echo "unknown suite: $suite (want inference or serve)" >&2
    exit 2
    ;;
esac

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { print "{"; printf "  \"generated\": \"%s\",\n  \"benchmarks\": {\n", date; n = 0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop = ""; extra = ""
    for (i = 2; i < NF; i++) {
        unit = $(i+1)
        if (unit == "ns/op") { nsop = $i; continue }
        if (unit !~ /\/op$/) continue
        key = unit; sub(/\/op$/, "", key)
        if (key == "B") key = "bytes_per_op"
        else if (key == "allocs") key = "allocs_per_op"
        extra = extra sprintf(", \"%s\": %s", key, $i)
    }
    if (nsop == "") next
    if (n++) printf ",\n"
    printf "    \"%s\": {\"ns_per_op\": %s%s}", name, nsop, extra
}
END { print "\n  }\n}" }
' "$tmp" >"$out"

echo "wrote $out"

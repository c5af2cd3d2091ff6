# Developer entry points. `make check` is the tier-1 gate: build, vet,
# gofmt cleanliness, the project's own static-analysis suite (costlint),
# and the full test suite.

GO ?= go
PKGS := ./...
BENCH_OUT ?= BENCH_INFERENCE.json
BENCH_SERVE_OUT ?= BENCH_SERVE.json

.PHONY: all build vet fmt-check lint static-tools test test-fault test-fuzz test-replica check bench bench-json bench-serve loc clean

all: check

build:
	$(GO) build $(PKGS)

# bench/ is its own module and reaches this one through
# bench/costload/surface.go: vet it too, so an export only it uses is not
# taken for dead.
vet:
	$(GO) vet $(PKGS)
	$(GO) vet -C bench ./...

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The project's static-analysis gate: noalloc, canonicaldot and
# atomichygiene over the whole module (see internal/analysis).
lint:
	$(GO) run ./cmd/costlint $(PKGS)

# Third-party analyzers, gated on availability: this container has no
# network, so staticcheck/govulncheck run only where they are installed
# (CI installs them; see .github/workflows/ci.yml).
static-tools:
	./scripts/static_tools.sh

test:
	$(GO) test $(PKGS)

# Fault-tolerance suite under the race detector: the injector itself, the
# crash-safe checkpoint I/O, failed-run containment in the scheduler,
# the daemon's supervisor + chaos acceptance scenario, and the replication
# failover suite (primary kill → lease-lapse promotion → zombie fencing,
# plus heartbeat liveness, token auth and slow-follower eviction).
test-fault:
	$(GO) test -race -count=1 ./internal/fault/
	$(GO) test -race -count=1 ./internal/core/ -run 'Checkpoint'
	$(GO) test -race -count=1 ./internal/serve/ -run 'FailedRun|PanickingRun|Breaker|FailsWhole|PanicRecovery|RetryAfter'
	$(GO) test -race -count=1 ./cmd/costestd/
	$(GO) test -race -count=1 ./internal/replica/ -run 'Failover|Heartbeat|TokenAuth|Eviction|BackoffDelay'

# Short coverage-guided fuzzing over every network- and disk-facing parser:
# the replication frame reader and the follower's frame apply path, the
# /estimate request decoder (differentially, against the struct decoder it
# replaced) and that struct decoder, the model payload codec (as a
# replication payload and inside a checkpoint file), and the GEMM kernel's AVX2
# panels against its portable kernel and Dot. Each target's seed corpus also
# runs as a plain test in `make test`; this target additionally explores.
# FUZZTIME tunes the per-target budget (CI uses the default). Minimizing a new
# input is capped at one attempt: grown from the checkpoint seeds (≈45 KB), an
# uncapped minimization stalls every worker for most of a short budget. A
# crasher still fails the run; only its minimization is cut short.
FUZZTIME ?= 15s
test-fuzz:
	$(GO) test ./internal/replica/ -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/replica/ -run '^$$' -fuzz '^FuzzApplyModelPayload$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzEstimateDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzWirePlanDecode$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/core/ -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz '^FuzzMatMulTransB$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 1x

# The replication conformance suite under the race detector — the
# bit-identity acceptance gate for the scale-out streaming runtime.
test-replica:
	$(GO) test -race -count=1 ./internal/replica/

check: build vet fmt-check lint test

# Hot-path microbenchmarks: the batch runtime (single-plan batch-of-one
# entry, batch serving, BenchmarkTrainEpochParallel shard variants), the
# memory pool read path, the hot-swap serving runtime (BenchmarkPublishDelta,
# continuous-loop BenchmarkFitParallel), the tensor kernels underneath them,
# the request path's body decoder and plan encoder, and the whole in-process
# /estimate request (BenchmarkHandleEstimate: allocations and bytes per
# request).
bench:
	$(GO) test ./internal/core/ -run xxx \
		-bench 'BenchmarkForwardSingle|BenchmarkForwardPooled|BenchmarkPoolGetParallel|BenchmarkEstimateBatch|BenchmarkTrainEpochParallel|BenchmarkPublishDelta|BenchmarkServer|BenchmarkFitParallel' \
		-benchmem -benchtime=1s
	$(GO) test ./internal/tensor/ -run xxx -bench . -benchmem -benchtime=1s
	$(GO) test ./internal/feature/ -run xxx -bench 'BenchmarkEncode' -benchmem -benchtime=1s
	$(GO) test ./internal/serve/ -run xxx -bench 'BenchmarkDecodeEstimate|BenchmarkHandleEstimate' -benchmem -benchtime=1s

# Regenerate $(BENCH_OUT) from a fresh benchmark run (see scripts/bench_json.sh).
bench-json:
	./scripts/bench_json.sh $(BENCH_OUT)

# Regenerate $(BENCH_SERVE_OUT): the networked-daemon scheduler benchmarks
# (throughput, p99 latency, mean coalesced batch size).
bench-serve:
	./scripts/bench_json.sh $(BENCH_SERVE_OUT) serve

# Non-test Go and assembly lines by ROADMAP's counting rule; a PR reports its net change
# as the difference of this figure at the parent and at its head.
loc:
	@./scripts/count_lines.sh

clean:
	$(GO) clean $(PKGS)

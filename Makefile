# Developer entry points; CI (.github/workflows/ci.yml) runs the same steps.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test lint lint-json vet race fuzz examples bench bench-json bench-diff bench-kernels bench-sched bench-sim trace-smoke cli-smoke chaos-smoke serve-smoke sdc-smoke clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Domain-aware static analysis (modarith, levelcheck, panicpolicy,
# paramcopy, telemetryguard, faultseed, ctxbudget, maporder, locksafe,
# releasecheck). ./... includes internal/analysis itself, so the analyzer
# suite is held to its own rules. lint-json additionally writes the
# machine-readable report CI uploads as an artifact. lint also fails on
# any file gofmt would rewrite.
lint:
	test -z "$$(gofmt -l .)"
	$(GO) run ./cmd/crophe-lint ./...

LINT_REPORT ?= crophe-lint-report.json

lint-json:
	$(GO) run ./cmd/crophe-lint -json -o $(LINT_REPORT) ./...

race:
	$(GO) test -race ./...

# Short smoke run of every fuzz target; raise FUZZTIME for longer campaigns.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzModMath -fuzztime=$(FUZZTIME) ./internal/modmath/
	$(GO) test -run=^$$ -fuzz=FuzzNTTRoundTrip -fuzztime=$(FUZZTIME) ./internal/ntt/
	$(GO) test -run=^$$ -fuzz=FuzzAutomorphismNTT -fuzztime=$(FUZZTIME) ./internal/poly/
	$(GO) test -run=^$$ -fuzz=FuzzMarshalRoundTrip -fuzztime=$(FUZZTIME) ./internal/ckks/
	$(GO) test -run=^$$ -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/fault/
	$(GO) test -run=^$$ -fuzz=FuzzRouteAvoiding -fuzztime=$(FUZZTIME) ./internal/noc/

# Build and run every program under examples/: the end-to-end callers of
# the functional CKKS and bootstrapping APIs (BSGS with all three Figure 8
# rotation plans, a full bootstrap). Each exits non-zero on failure.
EXAMPLES_BIN ?= /tmp/crophe-examples

examples:
	$(GO) build -o $(EXAMPLES_BIN)/ ./examples/...
	for ex in $(EXAMPLES_BIN)/*; do echo "== $$ex"; $$ex || exit 1; done

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every batch-NTT kernel benchmark under the race
# detector: catches data races in the parallel limb dispatch and keeps
# the benchmark code itself compiling and running in CI without paying
# for a real measurement.
bench-kernels:
	$(GO) test -race -run='^$$' -bench BenchmarkBatchNTT -benchtime=1x ./internal/ntt/

# One iteration of the cold scheduler benchmark (one Figure 9 cell, four
# designs) under the race detector, on one CPU and on two: keeps the
# allocation-free pricing path, the per-worker scratch, the merge of
# repeated segment searches and the concurrent candidate and segment
# searches race-checked and the benchmark compiling.
bench-sched:
	$(GO) test -race -run='^$$' -bench BenchmarkDesignEvaluateCold -benchtime=1x -cpu 1,2 ./internal/sched/

# One iteration of the healthy and the faulted simulator benchmarks under
# the race detector: keeps the mesh's cached detour trees and dense link
# accounting, and the placer's scratch reused from group to group,
# race-checked and both benchmarks compiling.
bench-sim:
	$(GO) test -race -run='^$$' -bench 'BenchmarkSimulate$$|BenchmarkSimulateFaulted' -benchtime=1x ./internal/sim/

# Machine-readable benchmark report (fast mode) and regression diff
# against the committed baseline.
BASELINE ?= BENCH_2026-08-08.json
BENCH_OUT ?= BENCH_$(shell date -u +%Y-%m-%d).json

bench-json:
	$(GO) run ./cmd/crophe-bench -fast -json -o $(BENCH_OUT)

bench-diff: bench-json
	$(GO) run ./cmd/crophe-bench diff $(BASELINE) $(BENCH_OUT)

# Export a Chrome trace from a bootstrapping simulation and check it is
# well-formed, non-trivial JSON (the golden-file test pins exact bytes;
# this smoke-checks the CLI path end to end).
trace-smoke:
	$(GO) run ./cmd/crophe-sim -hw crophe36 -workload boot -trace /tmp/crophe-trace.json
	$(GO) run ./cmd/crophe-sim -tracecheck /tmp/crophe-trace.json

# CLI smoke: run crophe-graph (summary, NTT-decomposed summary, DOT of
# one segment) and crophe-sched once each. Each must exit 0, the summary
# must carry the segment table's header and the DOT output must be a
# Graphviz digraph.
CLI_SMOKE_DIR ?= /tmp/crophe-cli-smoke

cli-smoke:
	mkdir -p $(CLI_SMOKE_DIR)
	$(GO) run ./cmd/crophe-graph > $(CLI_SMOKE_DIR)/graph.txt
	grep -qE '^segment +count +ops +modmuls +inter MB +aux MB$$' $(CLI_SMOKE_DIR)/graph.txt
	$(GO) run ./cmd/crophe-graph -nttdec
	$(GO) run ./cmd/crophe-graph -dot c2s > $(CLI_SMOKE_DIR)/c2s.dot
	grep -q '^digraph "c2s"' $(CLI_SMOKE_DIR)/c2s.dot
	$(GO) run ./cmd/crophe-sched

# Chaos smoke: the fault-injection and sweep tests under the race detector, a
# seeded degraded run with a trace (validated incl. the Fault track), and
# a deadline-bounded resilience sweep — the graceful-degradation paths
# exercised end to end.
CHAOS_SEED ?= 13

chaos-smoke:
	$(GO) test -race -run 'Fault|Degraded|Resilience|Anytime|Avoiding|Sweep' ./internal/fault/ ./internal/sim/ ./internal/sched/ ./internal/mapper/ ./internal/noc/ .
	$(GO) run ./cmd/crophe-sim -hw crophe64 -workload boot -faults rows:1,links:2,banks:8,hbm:0.8,stalls:2@150 -seed $(CHAOS_SEED) -deadline 500ms -trace /tmp/crophe-chaos-trace.json
	$(GO) run ./cmd/crophe-sim -tracecheck /tmp/crophe-chaos-trace.json
	$(GO) run ./cmd/crophe-sim -sweep 4 -seed $(CHAOS_SEED) -deadline 200ms

# Serving smoke: build the real crophe-serve binary and drive it end to
# end — health, memoized scheduling, a deadline-expiry partial, degraded
# simulation, chaos panic isolation, a synchronous sweep answered
# byte-identically twice, and SIGTERM drain. Pure Go driver, no curl.
SERVE_BIN ?= /tmp/crophe-serve-smoke

serve-smoke:
	$(GO) build -o $(SERVE_BIN) ./cmd/crophe-serve
	$(GO) run ./scripts/servesmoke -bin $(SERVE_BIN)

# Silent-data-corruption drill: a degraded crophe-sim run pricing the
# detect-recompute-escalate recovery; malformed flip/scrub specs must
# exit 2.
SIM_BIN ?= /tmp/crophe-sim-smoke

sdc-smoke:
	$(GO) build -o $(SIM_BIN) ./cmd/crophe-sim
	$(GO) run ./scripts/sdcsmoke -sim $(SIM_BIN)

clean:
	$(GO) clean ./...

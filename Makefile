# eotora — build, test, and reproduction targets.

GO ?= go
# BENCHTIME bounds each benchmark in `make bench` (go test -benchtime);
# CI shrinks it to keep the non-gating bench job fast.
BENCHTIME ?= 1s
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: all verify build lint vet test race cover fuzz soak bench bench-json bench-quick bench-smoke examples paper smoke-serve serve-demo compare-demo clean

all: build vet test

# verify is the pre-merge flow: correctness, the race detector over the
# mutable Engine/P2A reuse paths, and a compile-and-run pass over every
# benchmark.
verify: build lint test race bench-quick

build:
	$(GO) build ./...

# lint gates on formatting, static analysis, godoc coverage of the core
# packages (cmd/doccheck), and the repository's relative markdown links
# (cmd/linkcheck). staticcheck is optional locally (skipped with a notice
# when not installed); CI installs it.
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) run ./cmd/doccheck ./internal/core ./internal/game ./internal/obs ./internal/par ./internal/faults ./internal/trace ./internal/solver ./internal/serve ./internal/policy
	$(GO) run ./cmd/linkcheck .
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/...

# Short fuzz pass over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzLoadColumnCSV -fuzztime=15s ./internal/trace/
	$(GO) test -fuzz=FuzzLoadPriceCSV -fuzztime=15s ./internal/trace/
	$(GO) test -fuzz=FuzzReadJSON -fuzztime=15s ./internal/topology/
	$(GO) test -fuzz=FuzzReadCheckpoint -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzParallelEquivalence -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzChurnEquivalence -fuzztime=15s ./internal/core/
	$(GO) test -fuzz=FuzzEngineEquivalence -fuzztime=15s ./internal/game/
	$(GO) test -fuzz=FuzzIncrementalBestResponseEquivalence -fuzztime=15s ./internal/game/
	$(GO) test -fuzz=FuzzShardedEquivalence -fuzztime=15s ./internal/game/
	$(GO) test -fuzz=FuzzSanitizeState -fuzztime=15s ./internal/trace/
	$(GO) test -fuzz=FuzzPolicySeamEquivalence -fuzztime=15s ./internal/policy/

# Long fault-injection soak: 10k slots of corrupted traces, outages, and
# stalls under the race detector (the nightly configuration; see
# internal/sim/soak_test.go). The second leg repeats the run with
# population churn superimposed on the fault stream.
soak:
	FAULT_SOAK_SLOTS=10000 $(GO) test -race -run TestFaultSoak -count=1 -v ./internal/sim/
	FAULT_SOAK_SLOTS=10000 FAULT_SOAK_CHURN=1 $(GO) test -race -run TestFaultSoak -count=1 -v ./internal/sim/

# Full benchmark sweep with allocation stats (minutes). The raw benchstat
# stream lands in bench.out and a machine-readable BENCH_<rev>.json next
# to it (see cmd/benchjson). -cpu 2 pins the GOMAXPROCS name suffix the
# CI bench-gate matches baselines on; -count 5 records five samples per
# benchmark, which benchjson -compare reduces to their medians.
bench:
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=$(BENCHTIME) -count 5 -cpu 2 ./internal/... | tee bench.out
	$(GO) run ./cmd/benchjson -rev $(REV) -out BENCH_$(REV).json < bench.out
	@echo "wrote BENCH_$(REV).json"

# bench-json is the CI entry point: same as bench, named for intent.
bench-json: bench

# One-iteration pass over the benchmarks: compiles and exercises every
# benchmark body without timing them (part of verify).
bench-quick:
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=1x ./internal/...

# The repository benchmark's own tests at smoke scale (a few seconds).
# bench/ is a nested module outside the root `go test ./...`, so this is
# what catches a core API change that breaks the benchmark.
bench-smoke:
	cd bench && $(GO) test ./...

# End-to-end serve-mode smoke: boot cmd/eotorad, stream 200 slots of
# state diffs through cmd/loadgen in lockstep, scrape /metrics, and gate
# on zero shed + zero degraded slots (the CI serve-smoke job). See
# OPERATIONS.md §11.
smoke-serve:
	sh scripts/serve_smoke.sh

# The EXPERIMENTS.md serve-mode appendix run: a nominal-rate leg writing
# the per-slot stream CSV (serve_stream.csv) plus a deterministic
# overload leg demonstrating shed accounting and backpressure
# escalation.
serve-demo:
	sh scripts/serve_demo.sh

# The EXPERIMENTS.md policy appendix run: the six-policy comparison
# figure (every baseline + BDMA on one trace) and the V/λ auto-tuner
# trajectory, at quick scale into results/compare.
compare-demo:
	$(GO) run ./cmd/experiments -fig compare -out results/compare
	$(GO) run ./cmd/experiments -fig tuner -out results/compare

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vrgaming
	$(GO) run ./examples/iotfleet
	$(GO) run ./examples/greenbudget
	$(GO) run ./examples/multiroom
	$(GO) run ./examples/realprices

# Full paper-scale evaluation into results/ (tens of minutes).
paper:
	$(GO) run ./cmd/experiments -fig all -scale paper -out results/paper

clean:
	rm -rf results/paper results/compare

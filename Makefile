# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint test race fuzz bench bench-smoke bench-check figures ablations examples soak-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo 'gofmt needed on:'; gofmt -l .; exit 1; }

# go vet first for the generic correctness checks, then the custom suite
# for repo-specific invariants (determinism, dB/linear units, cancellation,
# close-error, lock-copy, lock-hold, conn deadlines, metric discipline);
# see the "Static analysis" section of README.md for the split.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/siclint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz passes over every fuzz target (wire formats and parsers).
fuzz:
	$(GO) test -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/frame/
	$(GO) test -fuzz='^FuzzDecodeSchedule$$' -fuzztime=10s ./internal/frame/
	$(GO) test -fuzz='^FuzzReader$$' -fuzztime=10s ./internal/capture/
	$(GO) test -fuzz='^FuzzReadSnapshots$$' -fuzztime=10s ./internal/trace/
	$(GO) test -fuzz='^FuzzDecodeReport$$' -fuzztime=10s ./internal/schedd/
	$(GO) test -fuzz='^FuzzSchedReplyEncode$$' -fuzztime=10s ./internal/schedd/
	$(GO) test -fuzz='^FuzzLogParse$$' -fuzztime=10s ./internal/atomicio/
	$(GO) test -fuzz='^FuzzDecodeHandoff$$' -fuzztime=10s ./internal/session/
	$(GO) test -fuzz='^FuzzDecodeWALRecord$$' -fuzztime=10s ./internal/session/
	$(GO) test -fuzz='^FuzzFastReject$$' -fuzztime=10s ./internal/gateway/
	$(GO) test -fuzz='^FuzzShardReplyDecode$$' -fuzztime=10s ./internal/gateway/
	$(GO) test -fuzz='^FuzzAppendFixed1$$' -fuzztime=10s ./internal/plot/

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, archived as JSON (the CI artifact).
# Catches benchmarks that no longer compile or crash without paying for a
# statistically meaningful run. BENCH_OUT defaults to the committed baseline;
# CI writes elsewhere (BENCH_OUT=BENCH_ci.json) and compares with bench-check.
BENCH_OUT ?= BENCH_10.json
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem ./... | $(GO) run ./cmd/benchjson -out $(BENCH_OUT)

# Compare a fresh bench-smoke artifact against the committed baseline:
# order-of-magnitude regression bound on the hot-path benches (including
# the batched Monte-Carlo figure drivers), plus the structural speedups
# the scheduler relies on: warm-vs-cold matching, and the warm 256-client
# re-solve crossover DESIGN.md documents (measured ~50×; 10× floor).
BENCH_AGAINST ?= BENCH_ci.json
bench-check:
	$(GO) run ./cmd/benchjson -against $(BENCH_AGAINST) -baseline BENCH_10.json \
		-benches BenchmarkMinCostPerfect64,BenchmarkScheduler64Clients,BenchmarkFig11TechniquesCDF,BenchmarkExtTriples -max-ratio 5 \
		-faster BenchmarkSolverWarm64:BenchmarkMinCostPerfect64:3 \
		-faster BenchmarkScheduler256ClientsWarm:BenchmarkScheduler256Clients:10

# Paper-scale regeneration of every figure + ablations into ./results.
figures:
	$(GO) run ./cmd/sicfig -all -out results

ablations:
	$(GO) run ./cmd/sicfig -ablations -out results

examples:
	@for e in quickstart uplink residential mesh adaptation live phy; do \
		echo "== examples/$$e =="; $(GO) run ./examples/$$e || exit 1; echo; \
	done

# A short race-enabled soak of the gateway tier: two shards, one abrupt
# kill and restart mid-run, fails on client-visible query errors.
soak-smoke:
	$(GO) run -race ./cmd/sicsoak -shards 2 -stations 24 -aps 3 \
		-duration 15s -kill 5s -revive 8s -seed 42

# BENCH_10.json is the committed baseline bench-check compares against;
# clean removes only derived artifacts.
clean:
	rm -rf results BENCH_5.json BENCH_ci.json

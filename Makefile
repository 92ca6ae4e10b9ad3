GO ?= go

.PHONY: all fmt build vet test race chaos check bench

all: check

build:
	$(GO) build ./...

# Every tracked Go file must be gofmt-clean; the listing names offenders.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# perfbench is its own module, so ./... in the root does not reach it;
# -short skips its workload smoke runs.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...
	cd perfbench && $(GO) test -short ./...

# The concurrency-heavy packages must stay race-clean. mna/measure are
# here for the workspace pool concurrent analyses share; experiment for
# the jobs.Map sweeps and the sharded Monte-Carlo yield;
# backend/gmid/opt for the trials those sweeps run concurrently; server
# for two nodes behind the router; llm for the knowledge index every
# model shares. Keep in step with scripts/check.sh.
race:
	$(GO) test -race ./internal/jobs ./internal/server ./internal/experiment \
		./internal/resilience ./internal/agents ./internal/telemetry \
		./internal/mna ./internal/measure ./internal/sizing ./internal/cluster \
		./internal/backend ./internal/gmid ./internal/opt \
		./internal/topology ./internal/bench ./internal/llm

# Chaos: the deterministic fault-injection suite run twice, then the
# fleet chaos harness's long profile — a bigger fleet under a denser
# kill/restart/partition/brownout script with the invariant checkers
# over the merged end state (see internal/chaos and DESIGN.md).
chaos:
	$(GO) test ./internal/resilience/... -race -count=2
	ARTISAN_CHAOS_LONG=1 $(GO) test ./internal/chaos -race -count=1

check: fmt vet build test race chaos

# bench prints every root benchmark with its allocations. Nothing gates
# on it: allocation counts are gated exactly by TestHotPathAllocs, and
# timing is judged by interleaved perfbench runs.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

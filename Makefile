GO ?= go

.PHONY: all fmt build vet test race chaos check bench

all: check

build:
	$(GO) build ./...

# Every tracked Go file must be gofmt-clean; the listing names offenders.
fmt:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency-heavy packages must stay race-clean. mna/measure are
# here for the parallel sweep and the shared workspace pool;
# backend/gmid/opt for the parallel sizing-backend sweep; llm for the
# knowledge index every model shares. Keep in step with scripts/check.sh.
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

# bench records (name, ns/op, allocs/op) into the untracked BENCH.json
# and fails on a >20% hot-path regression vs the committed baseline that
# scripts/check.sh gates against.
bench:
	scripts/bench.sh BENCH.json BENCH_pr9.json

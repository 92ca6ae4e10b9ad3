GO ?= go

.PHONY: all fmt build vet test allocs race chaos check bench loc

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

# The exact allocation gate once more at several GOMAXPROCS: its counts
# must not depend on the CPU count.
allocs:
	$(GO) test -count=1 -run '^TestHotPathAllocs$$' -cpu 1,2,4 .

# Every package must stay race-clean.
race:
	$(GO) test -race ./...

# Chaos: the deterministic fault-injection suite run twice, then the
# fleet chaos harness's long profile — a bigger fleet under a denser
# kill/restart/partition/brownout script with the invariant checkers
# over the merged end state (see internal/chaos and DESIGN.md).
chaos:
	$(GO) test ./internal/resilience/... -race -count=2
	ARTISAN_CHAOS_LONG=1 $(GO) test ./internal/chaos -race -count=1

# The whole gate: scripts/check.sh runs every step above (the chaos
# suites as short -count=2 smokes), the fuzz smokes and the errcheck
# grep. The single-step targets run one part alone; `make chaos` is the
# long soak.
check:
	sh scripts/check.sh

# bench prints every root benchmark with its allocations. Nothing gates
# on it: allocation counts are gated exactly by TestHotPathAllocs, and
# timing is judged by interleaved perfbench runs.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# loc prints the size of the non-test Go outside perfbench/: all lines,
# then the lines that are neither blank nor only a // comment.
loc:
	@files="$$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^perfbench/')"; \
	echo "non-test Go lines: $$(cat $$files | wc -l)"; \
	echo "without blank and comment-only lines: $$(cat $$files | grep -v '^[[:space:]]*$$' | grep -v '^[[:space:]]*//' | wc -l)"

#!/bin/sh
# CI gate: gofmt, vet, build, full test suite, the benchmark module's tests, a
# race pass over the concurrency-heavy packages, a two-node router
# smoke, a chaos smoke over the resilience layer, a hot-path perf gate
# against the committed benchmark baseline, and an errcheck-style grep
# gate. Mirrors `make check`.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go vet ./...
go build ./...
go test ./...
# The benchmark is its own module, so ./... above does not reach it:
# vet it and run its tests; -short skips the workload smoke runs.
(cd perfbench && go vet ./... && go test -short ./...)
# The experiment package's race pass also exercises the sharded
# Monte-Carlo yield (worker-identity tests) and the jobs.Map sweeps,
# whose genbench cells share each generated task across workers; llm's
# covers the knowledge index every model shares. Keep this list in step
# with the Makefile race target.
go test -race ./internal/jobs ./internal/server ./internal/experiment \
    ./internal/resilience ./internal/agents ./internal/telemetry \
    ./internal/mna ./internal/measure ./internal/sizing ./internal/cluster \
    ./internal/backend ./internal/gmid ./internal/opt \
    ./internal/topology ./internal/bench ./internal/llm

# Two-node router smoke: a quick fleet loadgen run proves two worker
# nodes behind the consistent-hash router serve the full mix end to end
# (routing, health probes, NDJSON pass-through) before the long gates.
go run ./cmd/loadgen -mode fleet -nodes 2 -n 60 -dup 0.5 -concurrency 8 \
    -node-workers 2 -model-latency 5ms -repeat 1

# Chaos smoke: the seeded fault injector, retry, and breaker tests must
# be deterministic — -count=2 re-runs them to catch order dependence.
go test ./internal/resilience/... -race -count=2

# Fleet chaos smoke: a 3-node fleet under the seeded kill/restart/
# partition/brownout script, with the invariant checkers over the merged
# end state. -count=2 proves the scenario replays identically. The long
# soak profile runs via `make chaos` (ARTISAN_CHAOS_LONG=1).
go test ./internal/chaos -race -count=2

# Fuzz smoke: 10 s of coverage-guided input generation per target over
# the parsers that face raw bytes (SPICE netlists, spec JSON, the journal
# replay path and topology JSON) and the white-box seed and gm/Id mapping
# that consume decoded topologies, seeded from the checked-in corpus under
# testdata/fuzz/. Crashers land in testdata/fuzz/<Target>/ and fail this
# gate until fixed.
for target in \
    'FuzzParse ./internal/netlist' \
    'FuzzDeviceLineRoundTrip ./internal/netlist' \
    'FuzzSpecJSON ./internal/spec' \
    'FuzzJournalReplay ./internal/cluster' \
    'FuzzFromJSON ./internal/topology' \
    'FuzzSeed ./internal/backend'; do
    set -- $target
    go test -run '^$' -fuzz "^$1\$" -fuzztime 10s "$2"
done

# Perf gate: re-run the seed benchmarks and fail on a >20% ns/op or
# allocs/op regression in the MNA/measure hot path vs the committed
# baseline (see scripts/bench.sh for the gated benchmark list).
benchtmp="$(mktemp)"
trap 'rm -f "$benchtmp"' EXIT
scripts/bench.sh "$benchtmp" BENCH_pr9.json

# Errcheck-style gate: no silently dropped trailing returns (almost
# always an ignored error) in the agent loop or the server.
if grep -rnE ', _ =|, _ :=' --include='*.go' internal/agents internal/server \
    | grep -v _test.go; then
    echo 'check: ignored trailing return value (fix or handle the error)' >&2
    exit 1
fi
echo check ok

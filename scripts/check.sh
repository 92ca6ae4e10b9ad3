#!/bin/sh
# CI gate: gofmt, vet, build, full test suite (which includes the exact
# hot-path allocation gate, TestHotPathAllocs), the benchmark module's
# tests, a race pass over every package, a chaos smoke
# over the resilience layer and the fleet, fuzz smokes, and an
# errcheck-style grep gate. `make check` runs this script; the
# Makefile's other targets run single steps, and `make chaos` the long
# chaos soak. Timing is not gated here: it is judged by interleaved
# perfbench runs.
set -eux
cd "$(dirname "$0")/.."
# Formatting gate: every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"
go vet ./...
go build ./...
go test ./...
# The exact allocation gate once more at several GOMAXPROCS: its counts
# must not depend on the CPU count.
go test -count=1 -run '^TestHotPathAllocs$' -cpu 1,2,4 .
# The benchmark is its own module, so ./... above does not reach it:
# vet it and run its tests; -short skips the workload smoke runs.
(cd perfbench && go vet ./... && go test -short ./...)
# Every package must stay race-clean. In internal/mna the race pass
# guards the one-owner rule (a compiled or restamped circuit, and the
# scratch it solves in, is used by one goroutine at a time) and runs the
# simulator's allocation guards with it.
go test -race ./...

# Chaos smoke: the seeded fault injector, retry, and breaker tests must
# be deterministic — -count=2 re-runs them to catch order dependence.
go test ./internal/resilience/... -race -count=2

# Fleet chaos smoke: a 3-node fleet under the seeded kill/restart/
# partition/brownout script, with the invariant checkers over the merged
# end state. -count=2 proves the scenario replays identically. The long
# soak profile runs via `make chaos` (ARTISAN_CHAOS_LONG=1).
go test ./internal/chaos -race -count=2

# Fuzz smoke: 10 s of coverage-guided input generation per target over
# the parsers that face raw bytes (SPICE netlists, spec JSON, the design
# request the router resolves from client bodies, whose key must survive
# a re-encode, the node's POST body decode, FuzzDecodeBody, which must
# accept exactly the bodies json.Unmarshal accepts, as the router does,
# the journal replay path and topology JSON), the white-box
# seed and gm/Id mapping that consume decoded topologies, the metric
# extraction over scaled generated circuits against the full-sweep
# oracle (the simulator's assembly and real-s determinant paths, and the
# one-pass analysis), the eigenvalue pole and zero find over scaled
# generated circuits against the Aberth oracle, the bounded
# expected-improvement pick against scoring every candidate, and the
# calculator, whose parse cache must answer as a fresh parse does, seeded
# from the checked-in corpus under testdata/fuzz/.
# Crashers land in testdata/fuzz/<Target>/ and fail this gate until
# fixed.
for target in \
    'FuzzParse ./internal/netlist' \
    'FuzzDeviceLineRoundTrip ./internal/netlist' \
    'FuzzSpecJSON ./internal/spec' \
    'FuzzRequest ./internal/core' \
    'FuzzDecodeBody ./internal/server' \
    'FuzzJournalReplay ./internal/cluster' \
    'FuzzFromJSON ./internal/topology' \
    'FuzzSeed ./internal/backend' \
    'FuzzAnalyze ./internal/measure' \
    'FuzzPoles ./internal/mna' \
    'FuzzAcquire ./internal/sizing' \
    'FuzzEval ./internal/calc'; do
    set -- $target
    go test -run '^$' -fuzz "^$1\$" -fuzztime 10s "$2"
done

# Errcheck-style gate: no silently dropped trailing returns (almost
# always an ignored error) in the agent loop or the server.
if grep -rnE ', _ =|, _ :=' --include='*.go' internal/agents internal/server \
    | grep -v _test.go; then
    echo 'check: ignored trailing return value (fix or handle the error)' >&2
    exit 1
fi
echo check ok

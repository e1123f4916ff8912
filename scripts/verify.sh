#!/bin/sh
# Full tier-1 verification gate (see ROADMAP.md) plus a fuzz smoke test.
# Run from the repository root:  sh scripts/verify.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== build"
go build ./...

echo "== vet"
go vet ./...

echo "== tests"
go test ./...

echo "== benchmark module (perfbench/ is its own Go module, which the root go build/vet/test skip)"
(cd perfbench && go vet ./... && go test ./...)

echo "== race gate (core, schedule, sat, obs, serve, flight, compilecache, history, stoke)"
go test -race ./internal/core ./internal/schedule ./internal/sat ./internal/obs ./internal/serve ./internal/flight ./internal/compilecache ./internal/history ./internal/stoke

echo "== perf gate (regression sentinel over the committed bench fixtures)"
sh scripts/perfgate.sh

echo "== serve smoke (HTTP compile + request-id echo + flight report + cache hit/bypass + default probe modes + /metrics scrape + graceful shutdown; then fleet: router + 2 workers via -route-file, routed /compile + /compile/batch, cache affinity on the owning shard, SIGTERM'd worker routed around)"
go run ./scripts/servesmoke

echo "== certification gate (drat checker tests + end-to-end -certify)"
go test ./internal/drat
out=$(go run ./cmd/denali -certify -q examples/byteswap/byteswap.dn)
echo "$out"
case "$out" in
*"certified: DRAT check"*) ;;
*)
    echo "certification gate: byteswap4 compiled without a certified optimality proof" >&2
    exit 1
    ;;
esac

echo "== incremental-equivalence gate (golden corpus, every budget 0..optimum: scratch Problem vs persistent Engine)"
go test -run '^TestIncrementalEquivalence$' -count=1 ./internal/core

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/lang
go test -run '^$' -fuzz '^FuzzSolver$' -fuzztime 10s ./internal/sat
go test -run '^$' -fuzz '^FuzzSolveAssumptions$' -fuzztime 10s ./internal/sat
go test -run '^$' -fuzz '^FuzzDRATChecker$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzDRATParse$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzKey$' -fuzztime 10s ./internal/compilecache
go test -run '^$' -fuzz '^FuzzScreenVsSim$' -fuzztime 10s ./internal/stoke

echo "verify.sh: all gates passed"

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

echo "== race gate (core, schedule, sat, obs, serve, flight, compilecache, history, stoke, axioms)"
go test -race ./internal/core ./internal/schedule ./internal/sat ./internal/obs ./internal/serve ./internal/flight ./internal/compilecache ./internal/history ./internal/stoke ./internal/axioms

echo "== flake guard (parallel speculation accounting under -race, 20 runs)"
go test -race -run '^TestParallelObs$' -count=20 ./internal/core

echo "== snapshot race guard (history snapshots encoded while Ingest writes, under -race, 10 runs)"
go test -race -run '^TestSnapshotEncodeDuringIngest$' -count=10 ./internal/history

echo "== solver recycle race guard (New/Solve/Release cycles on 8 goroutines passing released solver tables through the spare, under -race, 10 runs)"
go test -race -run '^TestSolverRecycleConcurrent$' -count=10 ./internal/sat

echo "== benchmark smoke (every per-layer benchmark once)"
go test -run '^$' -bench . -benchtime 1x ./internal/sat ./internal/schedule ./internal/egraph ./internal/matcher ./internal/drat

echo "== benchmark answers (one pass of each gated perfbench workload, built from this tree; perfbench exits 1 on any wrong answer, missing certificate or failed simulator check)"
bash perfbench/run.sh --workload kernels --seed 1 --seconds 0 --trace 0
bash perfbench/run.sh --workload deep-certify --seed 1 --seconds 0 --trace 0

echo "== serve smoke (-cache-dir is a usage error for denali and denali serve; one denali serve process: HTTP compile + request-id echo + flight report + cache miss/hit/bypass + a \"refresh\" cache field answers 400 + /debug/history covers every filed GMA + /debug/slo 404 + /version + /metrics scrape: cache hits and misses counted, no tier label, no denali_cache_bytes or denali_cache_store_errors_total + SIGTERM graceful shutdown)"
go run ./scripts/servesmoke

echo "== CLI trace smoke (-strategy parallel -trace -metrics on byteswap4: the Chrome trace holds the compile span and probe spans; the stderr table shows compile at 100.0% and the counts block)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/denali -strategy parallel -workers 2 -trace "$tmp/t.json" -metrics -q examples/byteswap/byteswap.dn 2>"$tmp/stderr"
cat "$tmp/stderr"
if ! grep -q '"name":"compile","ph":"X"' "$tmp/t.json" || ! grep -q '"name":"probe K=[0-9]*","ph":"X"' "$tmp/t.json"; then
    echo "CLI trace smoke: t.json lacks the compile span or a probe K= span" >&2
    exit 1
fi
if ! grep -Eq '^compile +.* 100\.0%$' "$tmp/stderr" || ! grep -Eq '^sat\.conflicts +[0-9]+$' "$tmp/stderr"; then
    echo "CLI trace smoke: -metrics must show compile at 100.0% and a sat.conflicts row" >&2
    exit 1
fi

echo "== report smoke (denali -report-out on byteswap4 and checksum into one log; denali report prints each GMA's cycles line and probe histogram, and -top 1 exactly one fingerprint block)"
go build -o "$tmp/denali" ./cmd/denali
awk '/^const Checksum = `/ {f = 1; next} f && /^`/ {exit} f' internal/programs/programs.go >"$tmp/checksum.dn"
"$tmp/denali" -report-out "$tmp/r.jsonl" -q examples/byteswap/byteswap.dn
"$tmp/denali" -report-out "$tmp/r.jsonl" -q "$tmp/checksum.dn"
"$tmp/denali" report "$tmp/r.jsonl" >"$tmp/report.txt"
cat "$tmp/report.txt"
for g in byteswap4 checksum checksum_loop checksum_block2; do
    block=$(awk -v g="$g" '$1 == g && $2 ~ /^\[/ {f = 1; print; next} /^$/ {f = 0} f' "$tmp/report.txt")
    if ! echo "$block" | grep -Eq '^  cycles=[0-9]+ +x1$' || ! echo "$block" | grep -Eq '^  K=[0-9]+ +sat=[0-9]+ +unsat=[0-9]+ +unknown=[0-9]+$'; then
        echo "report smoke: $g has no block with a cycles line and a probe histogram" >&2
        exit 1
    fi
done
if [ "$("$tmp/denali" report -top 1 "$tmp/r.jsonl" | grep -Ec '^[^ ].*  \[[0-9a-f]{16}\]  ')" != 1 ]; then
    echo "report smoke: -top 1 must print exactly one fingerprint block" >&2
    exit 1
fi

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

echo "== incremental-equivalence gate (golden corpus, every budget 0..optimum: one-shot reference Problem vs persistent Engine)"
go test -run '^TestIncrementalEquivalence$' -count=1 ./internal/core

echo "== trajectory gate (golden corpus: per-probe solver counters, assembly, certificate and DIMACS hashes match testdata/trajectory.json; linear encodes min(7, baseline bound) cycles up front, binary 8; TestSearchPinned: the solver's counters, model and proof-log hashes on its own instances, database reduction, compaction and a failed assumption included, match internal/sat/testdata/search.json)"
go test -run '^(TestSolverTrajectory|TestLinearWindowAtBaseline)$' -count=1 ./internal/core
go test -run '^TestSearchPinned$' -count=1 ./internal/sat

echo "== yardstick smoke (golden corpus under 3 seeded activity perturbations: every seed reaches the unperturbed answers; prints ladder conflicts per GMA)"
go test -run '^TestYardstick$' -count=1 -v ./internal/sat -yardstick 3

echo "== fuzz smoke (10s per target)"
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/lang
go test -run '^$' -fuzz '^FuzzSolver$' -fuzztime 10s ./internal/sat
go test -run '^$' -fuzz '^FuzzSolveAssumptions$' -fuzztime 10s ./internal/sat
go test -run '^$' -fuzz '^FuzzDRATChecker$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzCheckerVsReference$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzHintedProof$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzDRATParse$' -fuzztime 10s ./internal/drat
go test -run '^$' -fuzz '^FuzzKey$' -fuzztime 10s ./internal/compilecache
go test -run '^$' -fuzz '^FuzzScreenVsSim$' -fuzztime 10s ./internal/stoke

echo "verify.sh: all gates passed"

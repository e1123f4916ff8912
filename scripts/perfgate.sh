#!/bin/sh
# Regression-sentinel smoke over the committed bench fixtures.
# Run from the repository root:  sh scripts/perfgate.sh
#
# Two checks, both driven through `denali report -diff` so the gate
# exercises exactly the CI path:
#
#  1. BENCH_5.json vs BENCH_6.json measure disjoint things (per-GMA
#     incremental rows vs per-program cache rows); the sentinel must
#     compare zero keys and exit 0 rather than false-alarm.
#
#  2. BENCH_5.json#scratch vs BENCH_5.json#incremental is the known
#     small-GMA incremental regression: per-probe setup costs dominate
#     sub-0.1ms solves, so scale4plus1 and double slow down. The
#     sentinel must flag both and exit 3. (The compiler now answers
#     every GMA on the engine and accepts this small-GMA cost in
#     exchange for one probe path; the fixture still records it, so the
#     sentinel keeps a known regression to detect.)
#
#  3. BENCH_8.json#descend vs BENCH_8.json#portfolio must hold the
#     portfolio's answer bar: cycle counts may never regress against the
#     certified descend sweep (wall/solve-time deltas are tolerated —
#     the race trades redundant work for latency, and the cycle answer
#     is the contract).
#
#  4. BENCH_7.json vs BENCH_8.json#portfolio bridges the fixture
#     generations: the fleet fixture's per-unit wall times were warm
#     batch serves, so only an order-of-magnitude wall blowup (8x) on a
#     shared GMA flags — a portfolio race pathologically slower than a
#     whole HTTP round trip.
set -u

cd "$(dirname "$0")/.."

# go run swallows the program's exit code (always exits 1 on non-zero),
# so build the CLI once and invoke the binary directly.
bin=$(mktemp -d)/denali
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/denali || exit 1

echo "== perfgate: disjoint corpora compare clean (exit 0)"
if ! "$bin" report -diff BENCH_5.json BENCH_6.json; then
    echo "perfgate: BENCH_5 vs BENCH_6 flagged a regression across disjoint key spaces" >&2
    exit 1
fi

echo "== perfgate: scratch vs incremental flags the known small-GMA regression (exit 3)"
out=$("$bin" report -diff BENCH_5.json#scratch BENCH_5.json#incremental 2>&1)
code=$?
echo "$out"
if [ "$code" != 3 ]; then
    echo "perfgate: expected exit 3 (regression), got $code" >&2
    exit 1
fi
for gma in scale4plus1 double; do
    case "$out" in
    *"$gma"*) ;;
    *)
        echo "perfgate: known regression $gma not named in the verdict" >&2
        exit 1
        ;;
    esac
done

echo "== perfgate: portfolio answers never regress cycles vs certified descend"
out=$("$bin" report -diff BENCH_8.json#descend BENCH_8.json#portfolio 2>&1)
code=$?
echo "$out"
if [ "$code" != 0 ] && [ "$code" != 3 ]; then
    echo "perfgate: BENCH_8 descend-vs-portfolio diff failed outright (exit $code)" >&2
    exit 1
fi
case "$out" in
*"cycles"*)
    echo "perfgate: portfolio regressed a cycle answer vs the certified descend sweep" >&2
    exit 1
    ;;
esac

echo "== perfgate: portfolio race not grossly slower than the fleet fixture's serves"
if ! "$bin" report -diff -wall-ratio 8 BENCH_7.json BENCH_8.json#portfolio; then
    echo "perfgate: portfolio wall time blew past 8x the BENCH_7 fleet serves" >&2
    exit 1
fi

echo "perfgate.sh: sentinel gates passed"

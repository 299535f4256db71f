#!/bin/sh
# bench.sh — capture or check the figure/ablation benchmark baseline.
#
#   scripts/bench.sh capture <label>   run the acceptance benchmarks and
#                                      write BENCH_<label>.json
#   scripts/bench.sh check [baseline]  capture a fresh run and compare it
#                                      against the committed baseline
#                                      (default BENCH_seed.json); exits 1
#                                      on any >15% ns/op regression
#
# Extra stability knobs: BENCHTIME (default 3x), COUNT (default 3;
# the parser keeps the per-field median across the COUNT runs),
# THRESHOLD (default 0.15 — fractional ns/op growth that fails check),
# and HEAP_THRESHOLD (default 0.25 — fractional heap_bytes growth that
# fails check on rows where both baselines carry a heap sample, so a
# memory regression cannot pass the gate behind a speedup).
#
# LARGE=1 also runs the LargePlan grid/dense suite (single-shot, with
# heap-bytes) and folds it into the same baseline. Capture defaults to
# LARGE=1 so committed baselines record the large-n numbers; check
# defaults to LARGE=0 so the regression gate stays fast.
#
# cmd/robust artifacts carry the same schema under their "benchmarks"
# key (RobustSweep ns-per-run + heap footprint), so sweep baselines
# ratchet with the same tool:
#
#   go run ./cmd/bench -compare -threshold 0.25 \
#       ROBUST_pr10_small.json NEW_SWEEP.json
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-3x}"
COUNT="${COUNT:-3}"
THRESHOLD="${THRESHOLD:-0.15}"
HEAP_THRESHOLD="${HEAP_THRESHOLD:-0.25}"
PATTERN='Fig|Ablation'

capture() {
    out="$1"
    label="${2:-}"
    {
        go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" \
            -count "$COUNT" -benchmem -timeout 1800s .
        if [ "${LARGE:-0}" = 1 ]; then
            # Large-n cells are single-shot by design: one end-to-end
            # plan is the unit, and the heap-bytes metric is a footprint
            # sample, not a per-op rate worth averaging. The grid and
            # dense suites run in separate test processes: heap-bytes is
            # MemStats.HeapSys, a per-process high-water mark, so one
            # binary running both would stamp the grid headline row's
            # footprint onto every dense row that follows it.
            go test -run '^$' -bench 'LargePlanGrid' -benchtime 1x \
                -count 1 -timeout 1800s .
            go test -run '^$' -bench 'LargePlanDense' -benchtime 1x \
                -count 1 -timeout 1800s .
        fi
    } | go run ./cmd/bench -parse ${label:+-label "$label"} -o "$out"
    echo "wrote $out" >&2
}

case "${1:-}" in
capture)
    [ $# -eq 2 ] || { echo "usage: $0 capture <label>" >&2; exit 2; }
    # A baseline is a commitment; never record one from a tree that
    # fails its own static analysis.
    make lint >/dev/null || {
        echo "refusing to record baseline: make lint failed" >&2
        exit 1
    }
    LARGE="${LARGE:-1}"
    capture "BENCH_$2.json" "$2"
    ;;
check)
    base="${2:-BENCH_seed.json}"
    [ -f "$base" ] || { echo "baseline $base not found" >&2; exit 2; }
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    capture "$tmp"
    go run ./cmd/bench -compare -threshold "$THRESHOLD" \
        -heap-threshold "$HEAP_THRESHOLD" "$base" "$tmp"
    ;;
*)
    echo "usage: $0 capture <label> | check [baseline.json]" >&2
    exit 2
    ;;
esac

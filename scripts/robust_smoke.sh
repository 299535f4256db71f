#!/usr/bin/env bash
# robust_smoke.sh — end-to-end smoke test of the disturbance subsystem.
#
# Phase 1 runs a tiny Monte-Carlo robustness sweep (cmd/robust) on the
# smoke topology under the race detector — with parallel cell and
# replication workers, so the sweep's concurrency is race-checked end
# to end — and asserts that the slack-aware plan with re-dispatch
# loses zero sensors at ε=0.1: the perpetual-operation guarantee must
# survive travel noise, charger breakdowns, consumption drift and
# telemetry loss, not just the clean replay the goldens cover.
#
# Phase 2 is the robustness-at-scale budget: one n=20,000 disturbed
# cell (event-driven sweep, lazy residual integration) run without the
# race detector under GOMEMLIMIT=512MiB, gated on wall-clock and heap
# footprint via the harness's own -maxwallms/-maxheapbytes flags —
# a committed-artifact-sized sweep must stay inside CI's time and
# memory budgets, and still lose zero sensors. The committed
# ROBUST_pr10_small.json baseline records the n=150 sweep. Tunables
# via environment:
#
#   ROBUST_N, ROBUST_Q     phase-1 topology       (default 25 sensors, 3 depots)
#   ROBUST_T               phase-1 period         (default 60)
#   ROBUST_REPS            topologies per cell    (default 2)
#   ROBUST_INTENSITIES     disturbance sweep      (default 0.5,1)
#   ROBUST_EPS             planning slack sweep   (default 0.1)
#   ROBUST_OUT             also keep the JSON     (default: discard)
#   ROBUST_LARGE           run phase 2            (default 1; 0 skips)
#   ROBUST_LARGE_N/Q/T     phase-2 cell           (default 20000, 12, 30)
#   ROBUST_LARGE_SEED      phase-2 seed           (default 3)
#   ROBUST_LARGE_MAXWALLMS phase-2 wall budget    (default 240000 ms)
#   ROBUST_LARGE_MAXHEAP   phase-2 heap budget    (default 268435456 B)
set -euo pipefail
cd "$(dirname "$0")/.."

N="${ROBUST_N:-25}"
Q="${ROBUST_Q:-3}"
T="${ROBUST_T:-60}"
REPS="${ROBUST_REPS:-2}"
INTENSITIES="${ROBUST_INTENSITIES:-0.5,1}"
EPS="${ROBUST_EPS:-0.1}"
OUT="${ROBUST_OUT:-}"
LARGE="${ROBUST_LARGE:-1}"
LARGE_N="${ROBUST_LARGE_N:-20000}"
LARGE_Q="${ROBUST_LARGE_Q:-12}"
LARGE_T="${ROBUST_LARGE_T:-30}"
LARGE_SEED="${ROBUST_LARGE_SEED:-3}"
LARGE_MAXWALLMS="${ROBUST_LARGE_MAXWALLMS:-240000}"
LARGE_MAXHEAP="${ROBUST_LARGE_MAXHEAP:-268435456}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

json="$tmp/robust.json"
go run -race ./cmd/robust -n "$N" -q "$Q" -T "$T" -reps "$REPS" \
    -intensities "$INTENSITIES" -eps "$EPS" -maxdeaths 0 \
    -workers 2 -reps-workers 2 \
    -label smoke -o "$json"

if [ -n "$OUT" ]; then
    cp "$json" "$OUT"
    echo "robust_smoke: wrote $OUT" >&2
fi
echo "robust_smoke: OK (zero deaths at eps=$EPS under intensities $INTENSITIES)" >&2

if [ "$LARGE" != "0" ]; then
    bin="$tmp/robust"
    go build -o "$bin" ./cmd/robust
    GOMEMLIMIT=512MiB "$bin" -n "$LARGE_N" -q "$LARGE_Q" -T "$LARGE_T" \
        -dt 1 -seed "$LARGE_SEED" -reps 1 -intensities 1 -eps "$EPS" \
        -maxdeaths 0 -maxwallms "$LARGE_MAXWALLMS" -maxheapbytes "$LARGE_MAXHEAP" \
        -label smoke-large -o "$tmp/robust_large.json"
    echo "robust_smoke: OK (n=$LARGE_N cell within ${LARGE_MAXWALLMS} ms / ${LARGE_MAXHEAP} B under GOMEMLIMIT=512MiB, zero deaths)" >&2
fi

#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-fixed --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, temporary files and the traced pass's
# spans all go to .bench_build at the checkout root, so a run reads and
# writes nothing outside the checkout but the Go toolchain itself.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" --trace-dir "$build" "$@"

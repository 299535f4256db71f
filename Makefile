# Standard entry points; `make check` is what CI (and pre-commit) runs.

GO ?= go

.PHONY: build vet lint test race check-test bench-smoke bench-check serve-smoke churn-smoke robust-smoke profile check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (internal/lint): determinism,
# concurrency-safety and allocation-discipline conventions that go vet
# has no opinion on. Any finding fails.
lint:
	$(GO) run ./cmd/lint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full suite with the runtime invariant layer live (internal/check).
check-test:
	$(GO) test -tags checks ./...

# One iteration of every benchmark: catches bit-rot in bench code
# without paying for a real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 1800s .

# Full regression check against the committed baseline (slow).
bench-check:
	scripts/bench.sh check

# End-to-end smoke of the serving layer: start chargerd, drive it with
# a strict short load (non-2xx other than shed, or healthz flaps, fail).
serve-smoke:
	scripts/serve_smoke.sh

# End-to-end smoke of the streaming-session path: one tenant session
# churned with delta batches, gated on patch latency vs full-replan
# latency, patched-vs-fresh cost, and charging-gap feasibility.
churn-smoke:
	scripts/churn_smoke.sh

# Tiny Monte-Carlo disturbance sweep under -race: the slack-aware plan
# with re-dispatch must lose zero sensors at ε=0.1 on the smoke
# topology. The committed ROBUST_pr9.json baseline holds the full-size
# reduction/inflation gates.
robust-smoke:
	scripts/robust_smoke.sh

# Profile one figure sweep (default fig5; override with PROFILE_FIG=6).
# Inspect with `go tool pprof profiles/cpu.out` (or mem.out).
PROFILE_FIG ?= 5
profile:
	mkdir -p profiles
	$(GO) run ./cmd/bench -profile $(PROFILE_FIG) \
		-cpuprofile profiles/cpu.out -memprofile profiles/mem.out
	@echo "profiles written; try: go tool pprof -top profiles/cpu.out"

check: build vet lint race check-test bench-smoke

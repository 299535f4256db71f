package core

import (
	"math"
	"testing"

	"repro/internal/wsn"
)

func TestPlanFixedSlackTightensCadence(t *testing.T) {
	nw := genNet(t, 31, 40, 3, wsn.LinearDist{TauMin: 4, TauMax: 40, Sigma: 1})
	plain, err := PlanFixed(nw, 120, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slacked, err := PlanFixed(nw, 120, FixedOptions{Slack: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slacked.Tau1, plain.Tau1*0.9; math.Abs(got-want) > 1e-9 {
		t.Errorf("slacked τ_1 = %g, want %g", got, want)
	}
	if len(slacked.Schedule.Rounds) <= len(plain.Schedule.Rounds) {
		t.Errorf("slack did not tighten cadence: %d rounds vs %d", len(slacked.Schedule.Rounds), len(plain.Schedule.Rounds))
	}
	if slacked.Cost() <= plain.Cost() {
		t.Errorf("slack came for free: cost %g vs %g", slacked.Cost(), plain.Cost())
	}
	// The slacked plan must still meet the *slacked* deadlines — every
	// gap at most τ_i·(1−ε).
	cycles := nw.Cycles()
	for i := range cycles {
		cycles[i] *= 0.9
	}
	if err := slacked.Schedule.Verify(cycles, 1e-9); err != nil {
		t.Errorf("slacked plan infeasible under slacked cycles: %v", err)
	}
}

func TestPlanFixedSlackValidation(t *testing.T) {
	nw := genNet(t, 32, 10, 2, wsn.LinearDist{TauMin: 4, TauMax: 40, Sigma: 1})
	for _, bad := range []float64{-0.1, 1, 1.5} {
		if _, err := PlanFixed(nw, 50, FixedOptions{Slack: bad}); err == nil {
			t.Errorf("Slack=%g accepted", bad)
		}
	}
}

func TestPlanFixedAlignTau1(t *testing.T) {
	nw := genNet(t, 33, 30, 3, wsn.LinearDist{TauMin: 4, TauMax: 40, Sigma: 1})
	const dt = 0.2
	plan, err := PlanFixed(nw, 80, FixedOptions{Slack: 0.1, AlignTau1: dt})
	if err != nil {
		t.Fatal(err)
	}
	steps := math.Round(plan.Tau1 / dt)
	if math.Abs(plan.Tau1-steps*dt) > 1e-9 {
		t.Errorf("aligned τ_1 = %g is off the %g grid", plan.Tau1, dt)
	}
	for _, r := range plan.Schedule.Rounds {
		k := math.Round(r.Time / dt)
		if math.Abs(r.Time-k*dt) > 1e-6 {
			t.Errorf("round at t=%g off the %g grid", r.Time, dt)
			break
		}
	}
	// An alignment grid coarser than the slacked minimum cycle leaves
	// no base period.
	if _, err := PlanFixed(nw, 80, FixedOptions{AlignTau1: 1000}); err == nil {
		t.Error("τ_1 aligned to zero accepted")
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

func TestPlanFixedExtremeCycleRatio(t *testing.T) {
	// tau_max / tau_min = 1024 => K = 10; the plan must stay feasible
	// and its round count bounded by T/tau_min.
	nw := genNet(t, 31, 40, 3, wsn.RandomDist{TauMin: 1, TauMax: 1024})
	plan, err := PlanFixed(nw, 200, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.K > 10 {
		t.Errorf("K = %d, want <= 10", plan.K)
	}
	if err := plan.Schedule.Verify(nw.Cycles(), 1e-6); err != nil {
		t.Fatal(err)
	}
	if len(plan.Schedule.Rounds) > int(200/nw.MinCycle())+1 {
		t.Errorf("too many rounds: %d", len(plan.Schedule.Rounds))
	}
}

func TestPlanFixedIdenticalCycles(t *testing.T) {
	// All cycles equal: K = 0, a single solution reused everywhere.
	nw := genNet(t, 33, 30, 3, wsn.RandomDist{TauMin: 5, TauMax: 5})
	plan, err := PlanFixed(nw, 100, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 0 {
		t.Errorf("K = %d, want 0", plan.K)
	}
	if len(plan.RoundSolutions) != 1 {
		t.Errorf("solutions = %d", len(plan.RoundSolutions))
	}
	// Rounds at 5, 10, ..., 95 => 19 rounds, all with all sensors.
	if len(plan.Schedule.Rounds) != 19 {
		t.Errorf("rounds = %d, want 19", len(plan.Schedule.Rounds))
	}
	for _, r := range plan.Schedule.Rounds {
		if len(r.Sensors()) != 30 {
			t.Fatalf("round at %g charges %d sensors", r.Time, len(r.Sensors()))
		}
	}
}

func TestGreedyCustomThreshold(t *testing.T) {
	// A larger threshold charges earlier and hence more often; cost
	// must not decrease.
	nw := genNet(t, 35, 40, 3, linearDist())
	tight, err := sim.Run(nw, energy.NewFixed(nw), &Greedy{Threshold: 1}, sim.Config{T: 120, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := sim.Run(nw, energy.NewFixed(nw), &Greedy{Threshold: 5}, sim.Config{T: 120, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Deaths != 0 || tight.Deaths != 0 {
		t.Fatalf("deaths: tight=%d loose=%d", tight.Deaths, loose.Deaths)
	}
	if loose.Charges < tight.Charges {
		t.Errorf("threshold 5 charged less often (%d) than threshold 1 (%d)", loose.Charges, tight.Charges)
	}
}

func TestVarCoarseDecisionGrid(t *testing.T) {
	// Dt = 2 with cycles >= 4: the var policy's grid alignment must
	// still produce a safe schedule.
	dist := wsn.LinearDist{TauMin: 4, TauMax: 32, Sigma: 2}
	nw := genNet(t, 37, 30, 3, dist)
	model := slottedModel(t, nw, dist, 10, 41)
	res, pol, err := RunVar(nw, model, 120, 2, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Errorf("deaths = %d at Dt=2 (%d replans)", res.Deaths, pol.Replans)
	}
	// Dispatch times must sit on the Dt grid.
	for _, r := range res.Schedule.Rounds {
		if math.Mod(r.Time, 2) > 1e-9 {
			t.Fatalf("dispatch at %g off the Dt=2 grid", r.Time)
		}
	}
}

func TestVarSingleSensor(t *testing.T) {
	nw := genNet(t, 39, 1, 2, wsn.RandomDist{TauMin: 3, TauMax: 3})
	res, _, err := RunVar(nw, energy.NewFixed(nw), 30, 1, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Errorf("deaths = %d", res.Deaths)
	}
	// Charged every 3 time units: 9 dispatches in (0, 30).
	if got := res.Schedule.Dispatches(); got != 9 {
		t.Errorf("dispatches = %d, want 9", got)
	}
}

func TestGreedyRefinedToursNeverCostMore(t *testing.T) {
	nw := genNet(t, 41, 40, 4, linearDist())
	plain, err := RunGreedyFixed(nw, 100, 1, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RunGreedyFixed(nw, 100, 1, rooted.Options{Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same dispatch pattern (thresholds are geometry-independent), so
	// refined tours can only shorten the total.
	if refined.Cost() > plain.Cost()+1e-6 {
		t.Errorf("refined greedy %g > plain %g", refined.Cost(), plain.Cost())
	}
}

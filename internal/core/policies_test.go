package core

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

func roRefine() rooted.Options { return rooted.Options{Refine: true} }

func roNone() rooted.Options { return rooted.Options{} }

func metricSpace(nw *wsn.Network) metric.Space { return metric.Materialize(nw.Space()) }

func TestGreedyFixedNoDeathsAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		nw := genNet(t, seed, 50, 4, linearDist())
		res, err := RunGreedyFixed(nw, 200, 1, rooted.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deaths != 0 {
			t.Errorf("seed %d: %d deaths", seed, res.Deaths)
		}
		if res.Cost() <= 0 {
			t.Errorf("seed %d: cost %g", seed, res.Cost())
		}
	}
}

func TestGreedyChargesOnlyNeedySensors(t *testing.T) {
	nw := genNet(t, 3, 40, 3, linearDist())
	res, err := RunGreedyFixed(nw, 100, 1, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct residual lifetimes and confirm every charged sensor
	// was at or below threshold at its charge time (fixed rates make
	// this exact: life = cycle - (t - lastCharge)).
	last := make([]float64, nw.N())
	for _, round := range res.Schedule.Rounds {
		for _, id := range round.Sensors() {
			life := nw.Sensors[id].Cycle - (round.Time - last[id])
			if life > 1+1e-6 {
				t.Fatalf("sensor %d charged at t=%g with residual life %g > threshold 1",
					id, round.Time, life)
			}
			last[id] = round.Time
		}
	}
}

func TestGreedyRespectsCycleGaps(t *testing.T) {
	nw := genNet(t, 9, 40, 3, linearDist())
	res, err := RunGreedyFixed(nw, 150, 1, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(nw.Cycles(), 1e-6); err != nil {
		t.Errorf("greedy schedule infeasible: %v", err)
	}
}

func TestGreedyThresholdBelowGranularityRejected(t *testing.T) {
	nw := genNet(t, 5, 10, 2, linearDist())
	g := &Greedy{Threshold: 0.25}
	_, err := sim.Run(nw, energy.NewFixed(nw), g, sim.Config{T: 50, Dt: 1})
	if err == nil {
		t.Error("threshold < Dt accepted")
	}
	g2 := &Greedy{Threshold: -1}
	if _, err := sim.Run(nw, energy.NewFixed(nw), g2, sim.Config{T: 50, Dt: 1}); err == nil {
		t.Error("negative threshold accepted")
	}
}

func TestGreedyToursAreRooted(t *testing.T) {
	nw := genNet(t, 7, 30, 4, linearDist())
	res, err := RunGreedyFixed(nw, 60, 1, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	depots := map[int]bool{}
	for _, d := range nw.DepotIndices() {
		depots[d] = true
	}
	for _, round := range res.Schedule.Rounds {
		if len(round.Tours) != nw.Q() {
			t.Fatalf("round has %d tours, want %d", len(round.Tours), nw.Q())
		}
		for _, tour := range round.Tours {
			if !depots[tour.Depot] {
				t.Fatalf("tour rooted at %d which is not a depot", tour.Depot)
			}
		}
	}
}

func slottedModel(t *testing.T, nw *wsn.Network, dist wsn.CycleDist, dT float64, seed uint64) energy.Model {
	t.Helper()
	m, err := energy.NewSlotted(nw, dist, dT, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestVarNoDeathsAcrossSeeds(t *testing.T) {
	// The heuristic's whole purpose: perpetual operation under cycle
	// churn. Exercise several seeds, distributions and slot lengths.
	cases := []struct {
		name string
		dist wsn.CycleDist
		dT   float64
	}{
		{"linear dT=10", linearDist(), 10},
		{"linear dT=2", linearDist(), 2},
		{"linear sigma=20 dT=5", wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 20}, 5},
		{"random dT=10", wsn.RandomDist{TauMin: 1, TauMax: 50}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				nw := genNet(t, seed, 40, 4, tc.dist)
				model := slottedModel(t, nw, tc.dist, tc.dT, seed*1000)
				res, pol, err := RunVar(nw, model, 150, 1, 0, rooted.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Deaths != 0 {
					t.Errorf("seed %d: %d deaths (first at %g, %d replans)",
						seed, res.Deaths, res.FirstDeath, pol.Replans)
				}
			}
		})
	}
}

func TestVarStableCyclesNeverReplans(t *testing.T) {
	// sigma=0 linear distribution: every redraw returns the mean, so
	// after the initial plan no trigger should ever fire.
	dist := wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 0}
	nw := genNet(t, 3, 30, 3, dist)
	model := slottedModel(t, nw, dist, 10, 77)
	res, pol, err := RunVar(nw, model, 100, 1, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Replans != 1 { // only the Init plan
		t.Errorf("replans = %d, want 1", pol.Replans)
	}
	if res.Deaths != 0 {
		t.Errorf("deaths = %d", res.Deaths)
	}
}

func TestVarMatchesPlanFixedOnStableCycles(t *testing.T) {
	// With no cycle churn, MinTotalDistance-var should behave like the
	// offline MinTotalDistance: the same round membership pattern,
	// hence (nearly) the same service cost over a common horizon.
	dist := wsn.LinearDist{TauMin: 2, TauMax: 32, Sigma: 0}
	nw := genNet(t, 5, 30, 3, dist)
	model := energy.NewFixed(nw)
	res, _, err := RunVar(nw, model, 100, 1, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFixed(nw, 100, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The var policy aligns tau1 to the Dt=1 grid (floor(2)=2), same as
	// the plan's tau1=2, so costs should agree to within one round.
	diff := math.Abs(res.Cost() - plan.Cost())
	if diff > plan.Cost()*0.1+1e-6 {
		t.Errorf("var cost %g vs fixed plan %g (diff %g)", res.Cost(), plan.Cost(), diff)
	}
}

func TestVarReplansOnCycleCollapse(t *testing.T) {
	// Force a cycle collapse mid-run: rates jump 4x at t=20. The
	// policy must replan and nobody may die.
	nw := genNet(t, 11, 25, 3, wsn.LinearDist{TauMin: 4, TauMax: 32, Sigma: 0})
	model := &collapseModel{nw: nw, at: 20, factor: 4}
	res, pol, err := RunVar(nw, model, 100, 1, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Replans < 2 {
		t.Errorf("replans = %d, want >= 2 (init + collapse)", pol.Replans)
	}
	if res.Deaths != 0 {
		t.Errorf("deaths = %d after collapse", res.Deaths)
	}
}

// collapseModel multiplies all rates by factor from time at onwards.
type collapseModel struct {
	nw     *wsn.Network
	at     float64
	factor float64
}

func (m *collapseModel) Cycle(i int, t float64) float64 {
	c := m.nw.Sensors[i].Cycle
	if t >= m.at {
		return c / m.factor
	}
	return c
}
func (m *collapseModel) Rate(i int, t float64) float64 {
	return m.nw.Sensors[i].Capacity / m.Cycle(i, t)
}
func (m *collapseModel) SlotLength() float64 { return m.at }

func TestVarCheaperThanGreedyOnLinear(t *testing.T) {
	// The paper's headline comparison, in miniature: across a few
	// seeds, MinTotalDistance-var should beat greedy on average under
	// the linear distribution.
	dist := linearDist()
	var varSum, greedySum float64
	for seed := uint64(1); seed <= 5; seed++ {
		nw := genNet(t, seed, 60, 5, dist)
		mv := slottedModel(t, nw, dist, 10, seed*31)
		res, _, err := RunVar(nw, mv, 200, 1, 0, rooted.Options{})
		if err != nil {
			t.Fatal(err)
		}
		varSum += res.Cost()
		mg := slottedModel(t, nw, dist, 10, seed*31)
		gres, err := RunGreedyVar(nw, mg, 200, 1, 0, rooted.Options{})
		if err != nil {
			t.Fatal(err)
		}
		greedySum += gres.Cost()
	}
	if varSum >= greedySum {
		t.Errorf("MinTotalDistance-var (%.0f) not cheaper than Greedy (%.0f)", varSum, greedySum)
	}
}

func TestLifeClass(t *testing.T) {
	cases := []struct {
		l, tau1 float64
		want    int
	}{
		{1.5, 1, 0},
		{2.5, 1, 1},
		{4.1, 1, 2},
		{7.9, 1, 2},
		{8.0, 1, 2}, // exactly 2^3: strict inequality pushes down
		{16.5, 1, 4},
	}
	for _, tc := range cases {
		if got := lifeClass(tc.l, tc.tau1); got != tc.want {
			t.Errorf("lifeClass(%g, %g) = %d, want %d", tc.l, tc.tau1, got, tc.want)
		}
	}
}

func TestLifeClassStrictProperty(t *testing.T) {
	// 2^k * tau1 must be strictly below l so the patched charge lands
	// before predicted expiry.
	for i := 0; i < 2000; i++ {
		l := 1.0001 + float64(i)*0.01
		k := lifeClass(l, 1)
		if math.Pow(2, float64(k)) >= l {
			t.Fatalf("lifeClass(%g) = %d but 2^%d >= %g", l, k, k, l)
		}
	}
}

func TestGreedyVsChargeAllSanity(t *testing.T) {
	// Greedy must never exceed the naive charge-everyone-every-tau1
	// cost by more than a whisker (it charges subsets of that set).
	nw := genNet(t, 21, 40, 4, linearDist())
	res, err := RunGreedyFixed(nw, 100, 1, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := rooted.Tours(metricSpace(nw), nw.DepotIndices(), nw.SensorIndices(), rooted.Options{})
	naive := full.Cost() * 99 // rounds at t=1..99
	// Subset q-rooted TSP tours are not strictly monotone under the
	// 2-approximation, so allow a 2x envelope.
	if res.Cost() > 2*naive {
		t.Errorf("greedy cost %g wildly exceeds naive %g", res.Cost(), naive)
	}
}

// TestVarLifetimeGuardCatchesInBandDrift is the regression test for the
// safety hole found during fault injection: a sensor that was not fully
// charged at the last re-plan can starve when its rate rises while its
// cycle stays inside the paper's no-trigger band [τ̂', 2τ̂'). The
// lifetime guard must re-plan and rescue it.
func TestVarLifetimeGuardCatchesInBandDrift(t *testing.T) {
	nw := genNet(t, 2, 30, 3, wsn.LinearDist{TauMin: 4, TauMax: 32, Sigma: 0})
	// Rates rise by 1.5x at t=25 — cycles shrink by 1.5x, which keeps
	// every sensor inside its band (assigned cycles round down by up
	// to 2x), so the paper's trigger alone would not fire for most.
	model := &collapseModel{nw: nw, at: 25, factor: 1.5}
	res, pol, err := RunVar(nw, model, 120, 1, 0, rooted.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Errorf("%d deaths despite lifetime guard (first at %g, %d replans)",
			res.Deaths, res.FirstDeath, pol.Replans)
	}
	if pol.Replans < 2 {
		t.Errorf("guard never fired: %d replans", pol.Replans)
	}
}

func TestVarUpdateThresholdSavesTrafficSafely(t *testing.T) {
	dist := wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 10}
	nw := genNet(t, 51, 40, 4, dist)

	runWith := func(th float64) (sim.Result, *Var) {
		model := slottedModel(t, nw, dist, 5, 77)
		pol := NewVar(rooted.Options{})
		pol.UpdateThreshold = th
		res, err := sim.Run(nw, model, pol, sim.Config{T: 150, Dt: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res, pol
	}
	chatty, pc := runWith(0)
	quiet, pq := runWith(0.5)

	if chatty.Deaths != 0 || quiet.Deaths != 0 {
		t.Fatalf("deaths: chatty=%d quiet=%d", chatty.Deaths, quiet.Deaths)
	}
	if pq.UpdatesReceived >= pc.UpdatesReceived {
		t.Errorf("threshold 0.5 did not reduce reports: %d vs %d",
			pq.UpdatesReceived, pc.UpdatesReceived)
	}
	if pq.UpdatesReceived == 0 {
		t.Error("no reports at all — threshold gating broken")
	}
}

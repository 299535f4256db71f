package repro

import (
	"bytes"
	"testing"
)

// TestIntegrationKitchenSink combines every major feature in one
// scenario: a clustered deployment with heterogeneous batteries,
// variable charging cycles, a mid-run charger outage, health tracing,
// and persistence of the resulting schedule — everything must compose
// with zero sensor deaths.
func TestIntegrationKitchenSink(t *testing.T) {
	r := NewRand(2026)
	net, err := GenerateClustered(r.Split(1), ClusteredConfig{
		N: 80, Q: 4, Clusters: 4, Spread: 90,
		Dist: LinearDist{TauMin: 2, TauMax: 40, Sigma: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Heterogeneous batteries: rescale capacities by hand (the
	// clustered generator follows GenConfig defaults).
	for i := range net.Sensors {
		net.Sensors[i].Capacity = 0.8 + 0.4*float64(i%3)/2
	}

	model, err := NewSlottedModel(net, LinearDist{TauMin: 2, TauMax: 40, Sigma: 4}, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	tracer := NewTracer(&VarPolicy{})
	res, err := Simulate(net, model, tracer, SimConfig{
		T: 240, Dt: 1,
		Outages: []ChargerOutage{{Depot: 1, From: 60, To: 120}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Fatalf("%d deaths (first at %g)", res.Deaths, res.FirstDeath)
	}
	if res.Cost() <= 0 || res.Charges == 0 || res.EnergyDelivered <= 0 {
		t.Fatalf("degenerate run: cost=%g charges=%d energy=%g",
			res.Cost(), res.Charges, res.EnergyDelivered)
	}

	// Health margin must have stayed non-negative and the trace usable.
	margin, err := tracer.MinSafetyMargin()
	if err != nil {
		t.Fatal(err)
	}
	if margin < 0 {
		t.Errorf("negative safety margin %g", margin)
	}
	var svg bytes.Buffer
	if err := WriteTraceSVG(&svg, tracer.Trace(), "kitchen sink"); err != nil {
		t.Fatal(err)
	}

	// The schedule must survive persistence and still replay cleanly
	// under the same model.
	var buf bytes.Buffer
	if err := WriteScheduleJSON(&buf, res.Schedule); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadScheduleJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	model2, err := NewSlottedModel(net, LinearDist{TauMin: 2, TauMax: 40, Sigma: 4}, 8, r.Split(2))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(net, model2, restored)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deaths != 0 {
		t.Errorf("replayed schedule kills %d sensors", rep.Deaths)
	}

	// Physical execution check at a realistic vehicle speed.
	k := Kinematics{Speed: 15000, ChargeTime: 0.01}
	tsr, err := k.CheckTimeScale(nil, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if tsr.Violations != 0 {
		t.Errorf("%d physically impossible rounds at 15 km/unit", tsr.Violations)
	}
}

// TestIntegrationLongHorizon runs MinTotalDistance over a long period
// and checks the cost scales linearly with T (the schedule is periodic,
// so doubling T roughly doubles cost).
func TestIntegrationLongHorizon(t *testing.T) {
	net, err := Generate(NewRand(5), GenConfig{
		N: 60, Q: 5, Dist: LinearDist{TauMin: 1, TauMax: 32, Sigma: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	short, err := PlanFixed(net, 500, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	long, err := PlanFixed(net, 1000, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := long.Cost() / short.Cost()
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling T scaled cost by %g, want ~2", ratio)
	}
	if err := long.Schedule.Verify(net.Cycles(), 1e-6); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationCostMonotoneInT: more monitoring time never costs less.
func TestIntegrationCostMonotoneInT(t *testing.T) {
	net, err := Generate(NewRand(8), GenConfig{
		N: 40, Q: 3, Dist: LinearDist{TauMin: 1, TauMax: 50, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, T := range []float64{50, 100, 200, 400} {
		plan, err := PlanFixed(net, T, FixedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Cost() < prev-1e-9 {
			t.Fatalf("cost decreased when T grew to %g", T)
		}
		prev = plan.Cost()
	}
}

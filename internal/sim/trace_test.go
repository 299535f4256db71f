package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/wsn"
)

func TestTracerRecordsEveryEpoch(t *testing.T) {
	nw := testNet(t, 5)
	tr := NewTracer(chargeAllPolicy{period: 1, cost: 1})
	res, err := Run(nw, energy.NewFixed(nw), tr, Config{T: 20, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	trace := tr.Trace()
	if len(trace) != res.Epochs {
		t.Fatalf("trace has %d points, epochs %d", len(trace), res.Epochs)
	}
	for i, p := range trace {
		if p.Time != float64(i+1) { //lint:allow floateq trace records exact integer slot times
			t.Fatalf("point %d at time %g", i, p.Time)
		}
		if p.Charged != 5 {
			t.Fatalf("point %d charged %d", i, p.Charged)
		}
		if p.MinResidualFrac < 0 || p.MinResidualFrac > 1+1e-9 {
			t.Fatalf("point %d min frac %g", i, p.MinResidualFrac)
		}
		if p.MeanResidualFrac < p.MinResidualFrac-1e-9 {
			t.Fatalf("point %d mean < min", i)
		}
	}
	margin, err := tr.MinSafetyMargin()
	if err != nil {
		t.Fatal(err)
	}
	// Charged every τ_min, min cycle 2 => margin >= 1 - dt/minCycle.
	want := 1 - 1/nw.MinCycle()
	if margin < want-1e-9 {
		t.Errorf("margin %g, want >= %g", margin, want)
	}
}

func TestTracerDelegatesName(t *testing.T) {
	tr := NewTracer(nullPolicy{})
	if tr.Name() != "null+trace" {
		t.Errorf("name = %q", tr.Name())
	}
}

func TestTracerEmptyMargin(t *testing.T) {
	tr := NewTracer(nullPolicy{})
	if _, err := tr.MinSafetyMargin(); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestTracerSeesStarvation(t *testing.T) {
	nw := testNet(t, 3)
	tr := NewTracer(nullPolicy{})
	if _, err := Run(nw, energy.NewFixed(nw), tr, Config{T: 50, Dt: 1}); err != nil {
		t.Fatal(err)
	}
	margin, err := tr.MinSafetyMargin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(margin) > 1e-9 {
		t.Errorf("starved network margin = %g, want 0", margin)
	}
}

// TestTracerSeesStarvationDisturbed is TestTracerSeesStarvation under
// the disturbed runners, whose lazy residual engine commits stored
// residuals only at rate-grid boundaries and touches: the tracer must
// read residuals through the engine, and observing them must not change
// the run's outcome.
func TestTracerSeesStarvationDisturbed(t *testing.T) {
	nw := testNet(t, 3)
	cfg := Config{T: 50, Dt: 1}
	for _, r := range []struct {
		name string
		run  func(*wsn.Network, energy.Model, Policy, Config, Disturbed) (Result, error)
	}{{"event", RunDisturbed}, {"reference", RunDisturbedReference}} {
		name := r.name
		run := func(p Policy) (Result, error) {
			return r.run(nw, energy.NewFixed(nw), p, cfg, Disturbed{Speed: 1e9})
		}
		plain, err := run(nullPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracer(nullPolicy{})
		traced, err := run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Deaths != nw.N() {
			t.Fatalf("%s: %d deaths, want all %d sensors starved", name, plain.Deaths, nw.N())
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: tracing changed the result:\n plain %+v\ntraced %+v", name, plain, traced)
		}
		margin, err := tr.MinSafetyMargin()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(margin) > 1e-9 {
			t.Errorf("%s: starved network margin = %g, want 0", name, margin)
		}
	}
}

func TestTracerInitResets(t *testing.T) {
	nw := testNet(t, 2)
	tr := NewTracer(nullPolicy{})
	if _, err := Run(nw, energy.NewFixed(nw), tr, Config{T: 5, Dt: 1}); err != nil {
		t.Fatal(err)
	}
	first := len(tr.Trace())
	if _, err := Run(nw, energy.NewFixed(nw), tr, Config{T: 5, Dt: 1}); err != nil {
		t.Fatal(err)
	}
	if len(tr.Trace()) != first {
		t.Errorf("trace accumulated across runs: %d vs %d", len(tr.Trace()), first)
	}
}

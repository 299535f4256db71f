package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/wsn"
)

func testNet(t *testing.T, n int) *wsn.Network {
	t.Helper()
	nw, err := wsn.Generate(rng.New(101), wsn.GenConfig{
		N: n, Q: 3, Dist: wsn.LinearDist{TauMin: 2, TauMax: 20, Sigma: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// nullPolicy never charges anyone.
type nullPolicy struct{}

func (nullPolicy) Name() string                                { return "null" }
func (nullPolicy) Init(*Env) error                             { return nil }
func (nullPolicy) Decide(*Env, float64) ([]rooted.Tour, error) { return nil, nil }

// chargeAllPolicy recharges everyone at a fixed period.
type chargeAllPolicy struct {
	period float64
	cost   float64
}

func (chargeAllPolicy) Name() string    { return "chargeAll" }
func (chargeAllPolicy) Init(*Env) error { return nil }
func (p chargeAllPolicy) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	if math.Mod(t, p.period) > 1e-9 {
		return nil, nil
	}
	stops := make([]int, env.Net.N())
	for i := range stops {
		stops[i] = i
	}
	return []rooted.Tour{{Depot: env.Depots[0], Stops: stops, Cost: p.cost}}, nil
}

func TestRunNullPolicyKillsEveryone(t *testing.T) {
	nw := testNet(t, 10)
	res, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 100, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 10 {
		t.Errorf("deaths = %d, want 10 (cycles are all < 100)", res.Deaths)
	}
	if res.FirstDeath < 0 {
		t.Error("FirstDeath unset")
	}
	// First death should be around the minimum cycle.
	if res.FirstDeath > nw.MinCycle()+1.5 {
		t.Errorf("first death at %g, min cycle %g", res.FirstDeath, nw.MinCycle())
	}
	if res.Cost() != 0 {
		t.Errorf("null policy cost = %g", res.Cost())
	}
}

func TestRunChargeAllKeepsEveryoneAlive(t *testing.T) {
	nw := testNet(t, 10)
	pol := chargeAllPolicy{period: 1, cost: 2.5}
	res, err := Run(nw, energy.NewFixed(nw), pol, Config{T: 50, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 0 {
		t.Errorf("deaths = %d", res.Deaths)
	}
	// 49 decision epochs (t=1..49), all dispatch.
	if len(res.Schedule.Rounds) != 49 {
		t.Errorf("rounds = %d, want 49", len(res.Schedule.Rounds))
	}
	if math.Abs(res.Cost()-49*2.5) > 1e-9 {
		t.Errorf("cost = %g", res.Cost())
	}
}

func TestRunEnergyAccounting(t *testing.T) {
	// Single sensor, capacity 1, cycle 3.5 => rate 2/7. With no
	// charging its residual crosses below zero inside (3, 4], so the
	// death is reported at the interval end t=4. (Hitting exactly
	// zero at an epoch is not a death — schedules are tight at
	// equality.)
	nw := testNet(t, 1)
	nw.Sensors[0].Capacity = 1
	nw.Sensors[0].Cycle = 3.5
	res, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 10, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 1 {
		t.Fatalf("deaths = %d", res.Deaths)
	}
	if math.Abs(res.FirstDeath-4) > 1e-9 {
		t.Errorf("first death at %g, want 4", res.FirstDeath)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	nw := testNet(t, 3)
	if _, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 0}); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 10, Dt: -1}); err == nil {
		t.Error("negative Dt accepted")
	}
	if _, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 10, Gamma: 2}); err == nil {
		t.Error("gamma=2 accepted")
	}
}

type errPolicy struct{ initErr bool }

func (errPolicy) Name() string { return "err" }
func (p errPolicy) Init(*Env) error {
	if p.initErr {
		return errors.New("init boom")
	}
	return nil
}
func (errPolicy) Decide(*Env, float64) ([]rooted.Tour, error) {
	return nil, errors.New("decide boom")
}

func TestRunPropagatesPolicyErrors(t *testing.T) {
	nw := testNet(t, 3)
	if _, err := Run(nw, energy.NewFixed(nw), errPolicy{initErr: true}, Config{T: 10, Dt: 1}); err == nil {
		t.Error("init error swallowed")
	}
	if _, err := Run(nw, energy.NewFixed(nw), errPolicy{}, Config{T: 10, Dt: 1}); err == nil {
		t.Error("decide error swallowed")
	}
}

type badTourPolicy struct{}

func (badTourPolicy) Name() string    { return "bad" }
func (badTourPolicy) Init(*Env) error { return nil }
func (badTourPolicy) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	return []rooted.Tour{{Depot: env.Depots[0], Stops: []int{999}}}, nil
}

func TestRunRejectsInvalidSensorIndex(t *testing.T) {
	nw := testNet(t, 3)
	if _, err := Run(nw, energy.NewFixed(nw), badTourPolicy{}, Config{T: 10, Dt: 1}); err == nil {
		t.Error("invalid sensor index accepted")
	}
}

func TestEnvHelpers(t *testing.T) {
	nw := testNet(t, 4)
	probe := &envProbe{}
	if _, err := Run(nw, energy.NewFixed(nw), probe, Config{T: 5, Dt: 1}); err != nil {
		t.Fatal(err)
	}
	if probe.err != nil {
		t.Error(probe.err)
	}
}

type envProbe struct{ err error }

func (*envProbe) Name() string    { return "probe" }
func (*envProbe) Init(*Env) error { return nil }
func (p *envProbe) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	if p.err != nil {
		return nil, nil
	}
	if env.Now() != t { //lint:allow floateq the driver passes its own clock through exactly
		p.err = fmt.Errorf("Now() = %g at t=%g", env.Now(), t)
	}
	for i := range env.Net.Sensors {
		rate := env.Net.Sensors[i].Rate()
		if math.Abs(env.Pred.Predict(i)-rate) > 1e-12 {
			p.err = fmt.Errorf("Pred.Predict(%d) = %g, want %g", i, env.Pred.Predict(i), rate)
		}
		if math.Abs(env.PredCycle(i)-env.Net.Sensors[i].Cycle) > 1e-9 {
			p.err = fmt.Errorf("PredCycle(%d) = %g", i, env.PredCycle(i))
		}
		wantLife := env.Residual(i) / rate
		if math.Abs(env.ResidualLife(i)-wantLife) > 1e-9 {
			p.err = fmt.Errorf("ResidualLife(%d) = %g, want %g", i, env.ResidualLife(i), wantLife)
		}
	}
	return nil, nil
}

func TestRunIntegratesAcrossSlotBoundary(t *testing.T) {
	// Rate is 1 on [0,5) and 3 on [5,10) (slot length 5). With Dt=2,
	// the decision interval [4,6) straddles the boundary and must be
	// integrated piecewise: residual at t=6 is 100 - 5*1 - 1*3 = 92.
	nw := testNet(t, 1)
	nw.Sensors[0].Capacity = 100
	nw.Sensors[0].Cycle = 100
	model := &stepModel{cap: 100, slot: 5, rates: []float64{1, 3, 1, 3}}
	rec := &residualRecorder{probeAt: 6}
	if _, err := Run(nw, model, rec, Config{T: 10, Dt: 2}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(rec.value-92) > 1e-9 {
		t.Errorf("residual at t=6 = %g, want 92 (piecewise integration)", rec.value)
	}
}

// stepModel has per-slot constant rates from an explicit table.
type stepModel struct {
	cap   float64
	slot  float64
	rates []float64
}

func (m *stepModel) Cycle(i int, t float64) float64 { return m.cap / m.Rate(i, t) }
func (m *stepModel) Rate(i int, t float64) float64 {
	s := int(t / m.slot)
	if s >= len(m.rates) {
		s = len(m.rates) - 1
	}
	return m.rates[s]
}
func (m *stepModel) SlotLength() float64 { return m.slot }

type residualRecorder struct {
	probeAt float64
	value   float64
}

func (*residualRecorder) Name() string    { return "rec" }
func (*residualRecorder) Init(*Env) error { return nil }
func (r *residualRecorder) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	if t == r.probeAt { //lint:allow floateq probe fires on the exact slot-grid time
		r.value = env.Residual(0)
	}
	return nil, nil
}

func TestRunGammaSmoothing(t *testing.T) {
	// With gamma < 1 the predictor lags the true rate after a change.
	nw := testNet(t, 1)
	nw.Sensors[0].Capacity = 100
	nw.Sensors[0].Cycle = 10
	model := &stepModel{cap: 100, slot: 3, rates: []float64{1, 4, 1, 4}}
	probe := &gammaProbe{}
	if _, err := Run(nw, model, probe, Config{T: 8, Dt: 1, Gamma: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !probe.lagSeen {
		t.Error("gamma=0.5 predictor never lagged the true rate")
	}
}

type gammaProbe struct{ lagSeen bool }

func (*gammaProbe) Name() string    { return "gamma" }
func (*gammaProbe) Init(*Env) error { return nil }
func (g *gammaProbe) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	trueRate := env.Model.Rate(0, t)
	if math.Abs(env.Pred.Predict(0)-trueRate) > 1e-9 {
		g.lagSeen = true
	}
	return nil, nil
}

func TestDeadSensorRevivesOnCharge(t *testing.T) {
	nw := testNet(t, 1)
	nw.Sensors[0].Capacity = 1
	nw.Sensors[0].Cycle = 2 // dies at t=2 without charge
	pol := &lateCharger{at: 5}
	res, err := Run(nw, energy.NewFixed(nw), pol, Config{T: 10, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths < 1 {
		t.Fatalf("expected at least one death, got %d", res.Deaths)
	}
	if !pol.aliveAfter {
		t.Error("sensor not revived after charge")
	}
}

type lateCharger struct {
	at         float64
	aliveAfter bool
}

func (*lateCharger) Name() string    { return "late" }
func (*lateCharger) Init(*Env) error { return nil }
func (l *lateCharger) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	if t == l.at { //lint:allow floateq charger fires on the exact slot-grid time
		return []rooted.Tour{{Depot: env.Depots[0], Stops: []int{0}}}, nil
	}
	if t > l.at && env.Residual(0) > 0 {
		l.aliveAfter = true
	}
	return nil, nil
}

type outageBreaker struct{}

func (outageBreaker) Name() string    { return "breaker" }
func (outageBreaker) Init(*Env) error { return nil }
func (outageBreaker) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	// Deliberately dispatch from depot 0 regardless of outages.
	return []rooted.Tour{{Depot: env.Depots[0], Stops: []int{0}}}, nil
}

func TestRunRejectsDispatchFromDeadDepot(t *testing.T) {
	nw := testNet(t, 2)
	_, err := Run(nw, energy.NewFixed(nw), outageBreaker{}, Config{
		T: 20, Dt: 1, Outages: []Outage{{Depot: 0, From: 0, To: 20}},
	})
	if err == nil {
		t.Error("dispatch from dead depot accepted")
	}
}

func TestActiveDepots(t *testing.T) {
	nw := testNet(t, 2)
	probe := &depotProbe{}
	_, err := Run(nw, energy.NewFixed(nw), probe, Config{
		T: 20, Dt: 1, Outages: []Outage{{Depot: 1, From: 5, To: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if probe.err != nil {
		t.Error(probe.err)
	}
}

type depotProbe struct{ err error }

func (*depotProbe) Name() string    { return "depotProbe" }
func (*depotProbe) Init(*Env) error { return nil }
func (d *depotProbe) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	active := env.ActiveDepots()
	want := len(env.Depots)
	if t >= 5 && t < 10 {
		want--
	}
	if len(active) != want && d.err == nil {
		d.err = fmt.Errorf("t=%g: %d active depots, want %d", t, len(active), want)
	}
	return nil, nil
}

func TestEmptyToursRoundNotRecorded(t *testing.T) {
	nw := testNet(t, 2)
	res, err := Run(nw, energy.NewFixed(nw), nullPolicy{}, Config{T: 5, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Rounds) != 0 {
		t.Errorf("null policy recorded %d rounds", len(res.Schedule.Rounds))
	}
	if res.Epochs != 4 {
		t.Errorf("epochs = %d, want 4", res.Epochs)
	}
}

func TestEnergyDeliveredAccounting(t *testing.T) {
	// One sensor, rate 0.25, charged every 2 time units: each charge
	// delivers 0.5 energy. T=10 with Dt=1 => charges at 2,4,6,8.
	nw := testNet(t, 1)
	nw.Sensors[0].Capacity = 1
	nw.Sensors[0].Cycle = 4
	pol := chargeAllPolicy{period: 2, cost: 1}
	res, err := Run(nw, energy.NewFixed(nw), pol, Config{T: 10, Dt: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Charges != 4 {
		t.Fatalf("charges = %d, want 4", res.Charges)
	}
	if math.Abs(res.EnergyDelivered-4*0.5) > 1e-9 {
		t.Errorf("energy delivered = %g, want 2", res.EnergyDelivered)
	}
}

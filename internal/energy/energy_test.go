package energy

//lint:file-allow floateq model determinism is the contract: identical slots must give bit-identical cycles, and EWMA cases use exactly representable values
import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/wsn"
)

func testNet(t *testing.T, n int) *wsn.Network {
	t.Helper()
	nw, err := wsn.Generate(rng.New(19), wsn.GenConfig{
		N: n, Q: 3, Dist: wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestFixedModel(t *testing.T) {
	nw := testNet(t, 20)
	m := NewFixed(nw)
	for i, s := range nw.Sensors {
		for _, tt := range []float64{0, 10, 999} {
			if got := m.Cycle(i, tt); got != s.Cycle {
				t.Fatalf("Cycle(%d,%g) = %g, want %g", i, tt, got, s.Cycle)
			}
			if got := m.Rate(i, tt); math.Abs(got-s.Rate()) > 1e-12 {
				t.Fatalf("Rate(%d,%g) = %g, want %g", i, tt, got, s.Rate())
			}
		}
	}
	if !math.IsInf(m.SlotLength(), 1) {
		t.Errorf("SlotLength = %g", m.SlotLength())
	}
}

func TestFixedModelSnapshotsCycles(t *testing.T) {
	nw := testNet(t, 5)
	m := NewFixed(nw)
	orig := nw.Sensors[0].Cycle
	nw.Sensors[0].Cycle = 999
	if got := m.Cycle(0, 0); got != orig {
		t.Errorf("model tracked mutation: %g", got)
	}
}

func TestSlottedConstancyWithinSlot(t *testing.T) {
	nw := testNet(t, 30)
	dist := wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 2}
	m, err := NewSlotted(nw, dist, 10, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nw.N(); i++ {
		for _, pair := range [][2]float64{{0, 9.99}, {10, 19.99}, {50, 59}} {
			if a, b := m.Cycle(i, pair[0]), m.Cycle(i, pair[1]); a != b {
				t.Fatalf("sensor %d cycle changed within slot [%g,%g]: %g vs %g",
					i, pair[0], pair[1], a, b)
			}
		}
	}
}

func TestSlottedSlotZeroMatchesNetwork(t *testing.T) {
	nw := testNet(t, 20)
	m, err := NewSlotted(nw, wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 2}, 10, rng.New(29))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range nw.Sensors {
		if got := m.Cycle(i, 3); got != s.Cycle {
			t.Fatalf("slot-0 cycle %g != initial %g", got, s.Cycle)
		}
	}
}

func TestSlottedRedrawsAcrossSlots(t *testing.T) {
	nw := testNet(t, 50)
	m, err := NewSlotted(nw, wsn.RandomDist{TauMin: 1, TauMax: 50}, 10, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < nw.N(); i++ {
		if m.Cycle(i, 5) != m.Cycle(i, 15) {
			changed++
		}
	}
	if changed < nw.N()/2 {
		t.Errorf("only %d/%d cycles changed across slots", changed, nw.N())
	}
}

func TestSlottedDeterministicAcrossInstances(t *testing.T) {
	nw := testNet(t, 25)
	dist := wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 5}
	m1, _ := NewSlotted(nw, dist, 10, rng.New(37))
	m2, _ := NewSlotted(nw, dist, 10, rng.New(37))
	// Query in different orders; draws must be pure in (slot, sensor).
	for slot := 5; slot >= 1; slot-- {
		for i := 0; i < nw.N(); i++ {
			tt := float64(slot)*10 + 1
			if m1.Cycle(i, tt) != m2.Cycle(i, tt) {
				t.Fatalf("instances diverged at slot %d sensor %d", slot, i)
			}
		}
	}
}

func TestSlottedRespectsDistBounds(t *testing.T) {
	nw := testNet(t, 40)
	dist := wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 50}
	m, err := NewSlotted(nw, dist, 5, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 30; slot++ {
		for i := 0; i < nw.N(); i++ {
			c := m.Cycle(i, float64(slot)*5+0.5)
			if c < 1 || c > 50 {
				t.Fatalf("cycle %g outside [1,50]", c)
			}
			if r := m.Rate(i, float64(slot)*5+0.5); math.Abs(r-nw.Sensors[i].Capacity/c) > 1e-12 {
				t.Fatalf("rate inconsistent with cycle")
			}
		}
	}
}

func TestSlottedRejectsBadSlot(t *testing.T) {
	nw := testNet(t, 5)
	if _, err := NewSlotted(nw, wsn.RandomDist{TauMin: 1, TauMax: 2}, 0, rng.New(1)); err == nil {
		t.Error("zero slot length accepted")
	}
	if _, err := NewSlotted(nw, wsn.RandomDist{TauMin: 1, TauMax: 2}, -3, rng.New(1)); err == nil {
		t.Error("negative slot length accepted")
	}
}

func TestEWMA(t *testing.T) {
	e, err := NewEWMA(2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Observe(0, 10); got != 10 {
		t.Errorf("first observation = %g, want seed value 10", got)
	}
	if got := e.Observe(0, 20); got != 15 {
		t.Errorf("blend = %g, want 15", got)
	}
	if got := e.Predict(0); got != 15 {
		t.Errorf("Predict = %g", got)
	}
}

func TestEWMAGammaOne(t *testing.T) {
	e, err := NewEWMA(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Observe(0, 5)
	e.Observe(0, 9)
	if got := e.Predict(0); got != 9 {
		t.Errorf("gamma=1 should track last observation, got %g", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e, _ := NewEWMA(1, 0.3)
	e.Observe(0, 100)
	for i := 0; i < 200; i++ {
		e.Observe(0, 7)
	}
	if math.Abs(e.Predict(0)-7) > 1e-6 {
		t.Errorf("EWMA did not converge: %g", e.Predict(0))
	}
}

func TestEWMARejectsBadGamma(t *testing.T) {
	for _, g := range []float64{0, -0.5, 1.5} {
		if _, err := NewEWMA(1, g); err == nil {
			t.Errorf("gamma %g accepted", g)
		}
	}
}

func TestEWMAPredictBeforeObservePanics(t *testing.T) {
	e, _ := NewEWMA(1, 0.5)
	defer func() {
		if recover() == nil {
			t.Error("Predict before Observe should panic")
		}
	}()
	e.Predict(0)
}

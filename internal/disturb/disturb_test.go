package disturb

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// sample exercises every facet of a model deterministically and returns
// the collected values, for equality comparisons across instances.
func sample(m Model) []float64 {
	var out []float64
	for epoch := 0; epoch < 5; epoch++ {
		for tour := 0; tour < 3; tour++ {
			for leg := 0; leg < 4; leg++ {
				out = append(out, m.TravelFactor(epoch, tour, leg))
			}
		}
	}
	for i := 0; i < 8; i++ {
		for _, t := range []float64{0, 0.5, 1, 2.25, 7, 19.9} {
			out = append(out, m.RateFactor(i, t))
		}
		for epoch := 0; epoch < 6; epoch++ {
			out = append(out, float64(m.ObsDelay(i, epoch)))
		}
	}
	for _, w := range m.Windows(4, 50) {
		out = append(out, float64(w.Depot), w.From, w.To)
	}
	return out
}

func standardModel(seed uint64) Model {
	return Standard(rng.New(seed), 1.5, DefaultParams())
}

// TestSameSeedSameRealization checks that a model is a pure function
// of its seed.
//
//lint:allow floateq determinism asserts bit-identical draws
func TestSameSeedSameRealization(t *testing.T) {
	a := sample(standardModel(7))
	b := sample(standardModel(7))
	if len(a) != len(b) {
		t.Fatalf("sample lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDifferentSeedsDiffer checks that distinct seeds yield distinct
// realizations.
//
//lint:allow floateq determinism asserts bit-identical draws
func TestDifferentSeedsDiffer(t *testing.T) {
	a := sample(standardModel(7))
	b := sample(standardModel(8))
	same := true
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			same = false
			break
		}
	}
	if same && len(a) == len(b) {
		t.Fatal("seeds 7 and 8 produced identical realizations")
	}
}

// TestQueryOrderIndependence checks that facet draws depend only on
// their labels, not on the order the simulation asks for them.
//
//lint:allow floateq determinism asserts bit-identical draws
func TestQueryOrderIndependence(t *testing.T) {
	// Query the same labels in reverse order on a fresh instance; every
	// answer must match the forward pass (pure-in-labels contract).
	fwd := standardModel(3)
	rev := standardModel(3)
	type key struct{ epoch, tour, leg int }
	var keys []key
	for epoch := 0; epoch < 4; epoch++ {
		for tour := 0; tour < 2; tour++ {
			for leg := 0; leg < 3; leg++ {
				keys = append(keys, key{epoch, tour, leg})
			}
		}
	}
	want := make([]float64, len(keys))
	for i, k := range keys {
		want[i] = fwd.TravelFactor(k.epoch, k.tour, k.leg)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if got := rev.TravelFactor(k.epoch, k.tour, k.leg); got != want[i] {
			t.Fatalf("TravelFactor(%v) order-dependent: %v vs %v", k, got, want[i])
		}
	}
	// Drift's memoized walk must also be order-independent.
	rf := make([]float64, 10)
	for s := 0; s < 10; s++ {
		rf[s] = fwd.RateFactor(2, float64(s))
	}
	for s := 9; s >= 0; s-- {
		if got := rev.RateFactor(2, float64(s)); got != rf[s] {
			t.Fatalf("RateFactor(2, %d) order-dependent: %v vs %v", s, got, rf[s])
		}
	}
}

func TestFactorsPositiveFinite(t *testing.T) {
	m := standardModel(11)
	for _, v := range sample(m) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite sample value %v", v)
		}
	}
	for epoch := 0; epoch < 20; epoch++ {
		if f := m.TravelFactor(epoch, 0, 0); f <= 0 {
			t.Fatalf("TravelFactor <= 0: %v", f)
		}
	}
	for i := 0; i < 20; i++ {
		if f := m.RateFactor(i, 3.5); f <= 0 {
			t.Fatalf("RateFactor <= 0: %v", f)
		}
	}
}

func TestBreakdownWindowsWellFormed(t *testing.T) {
	b := NewBreakdowns(rng.New(5), 10, 2)
	const q, T = 3, 100.0
	ws := b.Windows(q, T)
	if len(ws) == 0 {
		t.Fatal("expected some breakdown windows at MTBF=10 over T=100")
	}
	last := make([]float64, q)
	for _, w := range ws {
		if w.Depot < 0 || w.Depot >= q {
			t.Fatalf("window depot %d out of range", w.Depot)
		}
		if !(w.From < w.To) || w.From < 0 || w.To > T {
			t.Fatalf("malformed window %+v", w)
		}
		if w.From < last[w.Depot] {
			t.Fatalf("windows for depot %d overlap or unsorted: %+v after %v", w.Depot, w, last[w.Depot])
		}
		last[w.Depot] = w.To
	}
}

func TestTelemetryLossRateRoughlyMatches(t *testing.T) {
	m := NewTelemetry(rng.New(9), 0.3, 0)
	lost := 0
	const trials = 2000
	for e := 0; e < trials; e++ {
		if m.ObsDelay(0, e) == Lost {
			lost++
		}
	}
	frac := float64(lost) / trials
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("loss fraction %v far from configured 0.3", frac)
	}
}

// TestComposeSemantics checks the documented facet-merging rules of
// Compose.
//
//lint:allow floateq determinism asserts bit-identical draws
func TestComposeSemantics(t *testing.T) {
	src := rng.New(2)
	a := NewTravelNoise(src, 0.1)
	b := NewDrift(src, DriftConfig{Sigma: 0.05, Step: 2})
	c := Compose{a, b}
	if got := c.TravelFactor(1, 0, 1); got != a.TravelFactor(1, 0, 1)*b.TravelFactor(1, 0, 1) {
		t.Fatalf("compose travel factor not the product: %v", got)
	}
	if got := c.RateStep(); got != 2 {
		t.Fatalf("compose RateStep = %v, want 2", got)
	}
	lossy := NewTelemetry(rng.New(4), 0.9, 0)
	cc := Compose{a, lossy}
	sawLost := false
	for e := 0; e < 50; e++ {
		if cc.ObsDelay(0, e) == Lost {
			sawLost = true
			break
		}
	}
	if !sawLost {
		t.Fatal("compose never propagated Lost from a 0.9-loss component")
	}
}

func TestStandardZeroIntensityIsNone(t *testing.T) {
	if m := Standard(rng.New(1), 0, DefaultParams()); m != None {
		t.Fatalf("intensity 0 should return None, got %v", m.Name())
	}
	if m := Standard(rng.New(1), 1, Params{}); m != None {
		t.Fatalf("empty params should return None, got %v", m.Name())
	}
}

// TestIdentityIsQuiet checks that Identity's factors are exactly
// neutral.
//
//lint:allow floateq neutral factors are exact sentinels
func TestIdentityIsQuiet(t *testing.T) {
	for _, v := range sample(None) {
		if v != 1 && v != 0 {
			t.Fatalf("Identity produced non-neutral value %v", v)
		}
	}
	if None.RateStep() != math.Inf(1) {
		t.Fatal("Identity RateStep should be +Inf")
	}
}

package wsn

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

// permuted returns a copy of nw with sensors and depots cyclically
// rotated by k and the sensor IDs reassigned to match their new
// positions — the same physical deployment under a different labelling.
func permuted(nw *Network, k int) *Network {
	out := &Network{Field: nw.Field, Base: nw.Base}
	n := len(nw.Sensors)
	for i := 0; i < n; i++ {
		s := nw.Sensors[(i+k)%n]
		s.ID = i
		out.Sensors = append(out.Sensors, s)
	}
	q := len(nw.Depots)
	for l := 0; l < q; l++ {
		out.Depots = append(out.Depots, nw.Depots[(l+k*3)%q])
	}
	return out
}

func TestFingerprintPermutationInvariance(t *testing.T) {
	nw, err := Generate(rng.New(42), GenConfig{
		N: 60, Q: 5, Dist: LinearDist{TauMin: 1, TauMax: 50, Sigma: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Fingerprint(nw)
	for _, k := range []int{1, 7, 31, 59} {
		p := permuted(nw, k)
		if got := Fingerprint(p); got != want {
			t.Errorf("rotation by %d changed fingerprint: %#x != %#x", k, got, want)
		}
		if nw.Equal(p) {
			t.Errorf("Equal must be order-sensitive, but rotation by %d compares equal", k)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	nw, err := Generate(rng.New(7), GenConfig{
		N: 30, Q: 3, Dist: RandomDist{TauMin: 1, TauMax: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := Fingerprint(nw)
	mutate := []func(*Network){
		func(m *Network) { m.Sensors[11].Cycle += 1e-9 },
		func(m *Network) { m.Sensors[0].Pos.X += 0.001 },
		func(m *Network) { m.Sensors[29].Capacity *= 1.0000001 },
		func(m *Network) { m.Depots[1].Y -= 0.5 },
		func(m *Network) { m.Base.X += 1 },
		func(m *Network) { m.Field.Max.X += 1 },
		func(m *Network) { m.Sensors = m.Sensors[:29] },
		func(m *Network) { m.Depots = m.Depots[:2] },
	}
	for i, mut := range mutate {
		m := &Network{Field: nw.Field, Base: nw.Base}
		m.Sensors = append([]Sensor(nil), nw.Sensors...)
		m.Depots = append([]geom.Point(nil), nw.Depots...)
		mut(m)
		if got := Fingerprint(m); got == base {
			t.Errorf("mutation %d did not change the fingerprint", i)
		}
		if m.Equal(nw) || nw.Equal(m) {
			t.Errorf("mutation %d still compares Equal", i)
		}
	}
}

// TestFingerprintCrossRunStability pins the hash of a hand-built
// deployment to a constant. The fingerprint keys persistent plan caches
// and committed memo artifacts, so any change to the hashing scheme must
// be deliberate — update the constant only when breaking cache
// compatibility on purpose.
func TestFingerprintCrossRunStability(t *testing.T) {
	nw := &Network{
		Field: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)},
		Base:  geom.Pt(50, 50),
		Sensors: []Sensor{
			{ID: 0, Pos: geom.Pt(10, 20), Capacity: 1, Cycle: 3},
			{ID: 1, Pos: geom.Pt(80, 15), Capacity: 1, Cycle: 7.5},
			{ID: 2, Pos: geom.Pt(45, 90), Capacity: 2, Cycle: 12.25},
		},
		Depots: []geom.Point{geom.Pt(50, 50), geom.Pt(5, 5)},
	}
	const want = uint64(0x7671beb9002d4464)
	if got := Fingerprint(nw); got != want {
		t.Errorf("Fingerprint = %#x, want %#x (hash scheme changed?)", got, want)
	}
	if !nw.Equal(nw) {
		t.Error("a network must Equal itself")
	}
}

// TestFingerprintAccumMatchesFromScratch is the incremental-update
// property: after any churn sequence of joins, leaves and in-place
// cycle updates, the accumulator's hash equals Fingerprint computed
// from scratch over the surviving sensor multiset. Sensor IDs are
// deliberately left stale in the reference network — Fingerprint
// excludes them, and the streaming session layer relies on that
// (its slot numbers are not compact ids).
func TestFingerprintAccumMatchesFromScratch(t *testing.T) {
	src := rng.New(99)
	nw, err := Generate(src.Split(1), GenConfig{
		N: 40, Q: 4, Dist: LinearDist{TauMin: 1, TauMax: 50, Sigma: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := NewFingerprintAccum(nw)
	if got, want := acc.Hash(), Fingerprint(nw); got != want {
		t.Fatalf("fresh accumulator hash %#x != Fingerprint %#x", got, want)
	}

	// live mirrors the multiset the accumulator should be tracking.
	live := append([]Sensor(nil), nw.Sensors...)
	churn := src.Split(2)
	for step := 0; step < 300; step++ {
		switch op := churn.Intn(3); {
		case op == 0 || len(live) == 0: // join
			s := Sensor{
				ID:       1000 + step, // stale on purpose; excluded from the hash
				Pos:      geom.Pt(churn.Uniform(0, 1000), churn.Uniform(0, 1000)),
				Capacity: 1,
				Cycle:    churn.Uniform(1, 50),
			}
			live = append(live, s)
			acc.AddSensor(s)
		case op == 1: // leave
			i := churn.Intn(len(live))
			acc.RemoveSensor(live[i])
			live = append(live[:i], live[i+1:]...)
		default: // rate update
			i := churn.Intn(len(live))
			updated := live[i]
			updated.Cycle = churn.Uniform(1, 50)
			acc.UpdateSensor(live[i], updated)
			live[i] = updated
		}
		ref := &Network{Field: nw.Field, Base: nw.Base, Sensors: live, Depots: nw.Depots}
		if got, want := acc.Hash(), Fingerprint(ref); got != want {
			t.Fatalf("step %d: accumulator hash %#x != from-scratch %#x (n=%d)", step, got, want, len(live))
		}
		if acc.n != len(live) {
			t.Fatalf("step %d: accumulator n=%d, want %d", step, acc.n, len(live))
		}
	}
}

package check_test

// The invariants this package once validated itself now have one
// validator each, kept with the type it validates (see the package
// doc). These tests drive those validators with small hand-built
// inputs, one violation per case: round coverage
// (rooted.Solution.Validate), the q-rooted forest
// (rooted.Forest.Validate) and gap feasibility (sched.Schedule.Verify).
// The validators' own tests corrupt planner output instead.

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/sched"
)

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("error containing %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

// line returns n points at x = 0, 1, …, n-1 on the x axis.
func line(n int) metric.Euclidean {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), 0)
	}
	return metric.NewEuclidean(pts)
}

func TestCovers(t *testing.T) {
	// Depots 0 and 10 with sensors on both sides of the line.
	sp := line(11)
	depots, sensors := []int{0, 10}, []int{1, 2, 3, 8, 9}
	sol := rooted.Tours(sp, depots, sensors, rooted.Options{})
	if err := sol.Validate(sp, depots, []int{9, 1, 8, 3, 2}); err != nil {
		t.Errorf("set-equal cover rejected: %v", err)
	}
	if err := rooted.Tours(sp, depots, nil, rooted.Options{}).Validate(sp, depots, nil); err != nil {
		t.Errorf("empty cover rejected: %v", err)
	}

	twice := rooted.Solution{Tours: append([]rooted.Tour(nil), sol.Tours...), ForestWeight: sol.ForestWeight}
	stops := twice.Tours[0].Stops
	twice.Tours[0].Stops = append(append([]int(nil), stops...), stops[0])
	wantErr(t, twice.Validate(sp, depots, sensors), "visited by two tours")

	part := rooted.Tours(sp, depots, sensors[:4], rooted.Options{})
	wantErr(t, part.Validate(sp, depots, sensors), "not covered")

	// The tours visit sensors 8 and 9, outside the requested set.
	wantErr(t, sol.Validate(sp, depots, sensors[:3]), "tours visit 5 sensors, want 3")
}

// validate runs rooted.Forest.Validate on a forest given as a parent
// array over line(len(parent)), its weight summed over the sensors'
// in-range parent edges.
func validate(parent, depots, sensors []int) error {
	sp := line(len(parent))
	f := rooted.Forest{Parent: parent, Depots: depots}
	for _, s := range sensors {
		if p := parent[s]; p >= 0 && p < len(parent) {
			f.Weight += sp.Dist(s, p)
		}
	}
	return f.Validate(sp, depots, sensors)
}

func TestForest(t *testing.T) {
	// Vertices 0..2 sensors, 3..4 depots: 0→3, 1→0, 2→4.
	if err := validate([]int{3, 0, 4, -1, -1}, []int{3, 4}, []int{0, 1, 2}); err != nil {
		t.Errorf("valid forest rejected: %v", err)
	}
	wantErr(t, validate([]int{-1}, []int{5}, nil), "depot 5 out of range")
	wantErr(t, validate([]int{1, 0, -1}, []int{2}, []int{0, 1}), "cycle")
	// Sensor rooted at a non-depot.
	wantErr(t, validate([]int{-1, 0, -1}, []int{2}, []int{1}), "not a depot")
	// Depot with a parent.
	wantErr(t, validate([]int{1, -1}, []int{0, 1}, nil), "want -1")
}

// TestForestCycleOnDepotParent gives a sensor a parent outside the
// space: the walk towards the root must stop with an error rather than
// index the parent array there.
func TestForestCycleOnDepotParent(t *testing.T) {
	wantErr(t, validate([]int{9, -1}, []int{1}, []int{0}), "invalid ancestor")
}

// charges returns a schedule over [0, T] that charges sensor 0 once at
// each of the given times, one round per time.
func charges(T float64, times ...float64) *sched.Schedule {
	s := &sched.Schedule{T: T}
	for _, at := range times {
		s.Rounds = append(s.Rounds, sched.Round{Time: at, Tours: []rooted.Tour{{Depot: 100, Stops: []int{0}, Cost: 1}}})
	}
	return s
}

func TestGaps(t *testing.T) {
	// Sensor 0: cycle 10, charges at 10, 20; T=25 — all gaps ≤ 10.
	if err := charges(25, 10, 20).Verify([]float64{10}, 1e-9); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
	// No charges at all is fine when T fits inside one cycle.
	if err := charges(10).Verify([]float64{10}, 1e-9); err != nil {
		t.Errorf("single-cycle horizon rejected: %v", err)
	}
	wantErr(t, charges(20, 15).Verify([]float64{10}, 1e-9), "sensor 0 gap")
	wantErr(t, charges(20, 5).Verify([]float64{10}, 1e-9), "tail gap")
	// Charges out of time order are out-of-order rounds.
	wantErr(t, charges(40, 20, 10).Verify([]float64{30}, 1e-9), "before previous round")
	// A schedule for a larger network than the cycles describe.
	wider := &sched.Schedule{T: 5, Rounds: []sched.Round{{Time: 1, Tours: []rooted.Tour{{Depot: 100, Stops: []int{0, 1}, Cost: 1}}}}}
	wantErr(t, wider.Verify([]float64{10}, 1e-9), "network has 1")
}

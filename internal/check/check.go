// Package check is the runtime invariant layer behind the "checks"
// build tag. The algorithm packages guard their postconditions with
//
//	if check.Enabled {
//		if err := sol.Validate(sp, depots, sensors); err != nil { ... }
//	}
//
// Enabled is a constant — true under -tags checks, false otherwise — so
// in default builds the compiler folds the branch away and the
// invariants cost nothing; benchmarks are unaffected. `go test -tags
// checks ./...` runs the whole suite with every invariant live.
//
// Each invariant's validator lives with the type it validates:
// sched.Schedule.Verify and sched.VerifyCadence for gap feasibility,
// rooted.Forest.Validate for the q-rooted forest,
// rooted.Solution.Validate for round coverage, and delta.State.Verify
// for a session's patched plan. This package keeps the switch plus the
// two checks only sim.Run and sim.RunDisturbed need: Tour for the tours
// a policy dispatches and Arrivals for a disturbed sortie's arrival
// times. They are compiled in both modes so they stay vetted and
// testable without the tag, and the package depends on the standard
// library only.
package check

import (
	"fmt"
	"math"
)

// Tour verifies the structural validity of one closed tour over a space
// of n points: the depot and every stop index in [0, n), no repeated
// stops, and the depot not doubling as a stop (tours are closed walks
// depot → stops → depot, so a depot among the stops would be a repeat).
func Tour(n, depot int, stops []int) error {
	if depot < 0 || depot >= n {
		return fmt.Errorf("check: tour depot %d out of range [0,%d)", depot, n)
	}
	seen := make(map[int]bool, len(stops))
	for _, s := range stops {
		if s < 0 || s >= n {
			return fmt.Errorf("check: tour at depot %d has stop %d out of range [0,%d)", depot, s, n)
		}
		if s == depot {
			return fmt.Errorf("check: tour at depot %d revisits its own depot as a stop", depot)
		}
		if seen[s] {
			return fmt.Errorf("check: tour at depot %d visits stop %d twice", depot, s)
		}
		seen[s] = true
	}
	return nil
}

// Arrivals verifies the realized arrival times of one disturbed sortie:
// every arrival finite, never before the dispatch instant, and
// nondecreasing in stop order (travel factors are positive, so time
// cannot run backwards). dispatch is the tour's launch time.
func Arrivals(dispatch float64, arrive []float64) error {
	prev := dispatch
	for k, t := range arrive {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("check: sortie arrival %d at %g is not finite", k, t)
		}
		if t-prev < 0 {
			return fmt.Errorf("check: sortie arrival %d at %g before previous event at %g", k, t, prev)
		}
		prev = t
	}
	return nil
}

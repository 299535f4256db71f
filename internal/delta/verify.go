package delta

import (
	"fmt"
	"math"

	"repro/internal/sched"
)

// Verify checks the State's structural invariants from scratch — the
// runtime postcondition hook of Apply and planLive under -tags checks,
// and the oracle delta_test's property tests call directly.
//
// It verifies:
//
//   - Coverage: every live slot of class c appears exactly once in every
//     prefix solution D_k with k >= c, and never in D_k with k < c; dead
//     slots appear nowhere; tourOf agrees with the stop lists.
//   - Costs: every tour's recorded cost and every solution's sum match a
//     from-scratch recomputation to 1e-6 relative.
//   - Gap feasibility (Lemma 2): for every live sensor, consecutive
//     charge times under the patched round grid are at most its cycle
//     apart, terminal gap to T included.
//
// The per-tour and per-slot checks live in named helper methods so
// their cold error paths sit outside any loop body — Verify runs under
// the hotalloc lint like the rest of the package.
func (st *State) Verify() error {
	if st.nAlive < 1 {
		return fmt.Errorf("delta: no live sensors")
	}
	for k := range st.sols {
		if err := st.verifySolution(k); err != nil {
			return err
		}
	}
	for slot := range st.sensors {
		if !st.alive[slot] {
			continue
		}
		if err := st.verifyGaps(slot); err != nil {
			return err
		}
	}
	return nil
}

// verifySolution checks prefix solution D_k: tour structure, coverage
// multiplicity and cost bookkeeping.
func (st *State) verifySolution(k int) error {
	sol := &st.sols[k]
	if len(sol.tourOf) != len(st.sensors) {
		return fmt.Errorf("delta: D_%d tourOf has %d slots, state has %d", k, len(sol.tourOf), len(st.sensors))
	}
	seen := make([]int, len(st.sensors))
	for ti := range sol.tours {
		if err := st.verifyTour(k, ti, sol, seen); err != nil {
			return err
		}
	}
	var wantSol float64
	for ti := range sol.tours {
		wantSol += sol.tours[ti].cost
	}
	if !approxEq(sol.cost, wantSol) {
		return fmt.Errorf("delta: D_%d cost %g, tours sum to %g", k, sol.cost, wantSol)
	}
	for slot := range st.sensors {
		if err := st.verifyCoverage(k, slot, seen[slot]); err != nil {
			return err
		}
	}
	return nil
}

// verifyTour checks tour ti of D_k: depot labeling, each stop, and the
// recorded cost against a from-scratch recomputation.
func (st *State) verifyTour(k, ti int, sol *solution, seen []int) error {
	t := &sol.tours[ti]
	if t.depot != ti {
		return fmt.Errorf("delta: D_%d tour %d labeled depot %d", k, ti, t.depot)
	}
	for _, s := range t.stops {
		if err := st.verifyStop(k, ti, s, sol, seen); err != nil {
			return err
		}
	}
	want := st.tourCost(t)
	if !approxEq(t.cost, want) {
		return fmt.Errorf("delta: D_%d tour %d cost %g, recomputed %g", k, ti, t.cost, want)
	}
	return nil
}

// verifyStop checks one visited slot s of D_k tour ti and tallies it in
// seen.
func (st *State) verifyStop(k, ti, s int, sol *solution, seen []int) error {
	if s < 0 || s >= len(st.sensors) {
		return fmt.Errorf("delta: D_%d tour %d visits slot %d out of range", k, ti, s)
	}
	seen[s]++
	if !st.alive[s] {
		return fmt.Errorf("delta: D_%d tour %d visits dead slot %d", k, ti, s)
	}
	if int(sol.tourOf[s]) != ti {
		return fmt.Errorf("delta: slot %d in D_%d tour %d but tourOf says %d", s, k, ti, sol.tourOf[s])
	}
	return nil
}

// verifyCoverage checks slot's appearance count in D_k against its
// class and liveness.
func (st *State) verifyCoverage(k, slot, count int) error {
	c := int(st.class[slot])
	switch {
	case !st.alive[slot]:
		if c != -1 {
			return fmt.Errorf("delta: dead slot %d has class %d", slot, c)
		}
		if count != 0 {
			return fmt.Errorf("delta: dead slot %d appears in D_%d", slot, k)
		}
	case c < 0 || c > st.k:
		return fmt.Errorf("delta: live slot %d has class %d outside [0, %d]", slot, c, st.k)
	case k >= c && count != 1:
		return fmt.Errorf("delta: live slot %d (class %d) appears %d times in D_%d", slot, c, count, k)
	case k < c && count != 0:
		return fmt.Errorf("delta: live slot %d (class %d) appears in D_%d", slot, c, k)
	}
	return nil
}

// verifyGaps checks gap feasibility for one live slot: class c is
// charged at every round j with ord(j) >= c, i.e. every base^c·τ_1 time
// units inside (0, T), which sched.VerifyCadence decides in closed form
// against the sensor's (unrounded) cycle, terminal gap to T included.
func (st *State) verifyGaps(slot int) error {
	period := math.Pow(st.base, float64(st.class[slot])) * st.tau1
	if err := sched.VerifyCadence(period, st.sensors[slot].Cycle, st.cfg.T); err != nil {
		return fmt.Errorf("delta: slot %d class %d: %w", slot, st.class[slot], err)
	}
	return nil
}

// approxEq compares recorded against recomputed costs with 1e-6
// relative tolerance — wide enough for the one extra rounding step the
// incremental solution sums take, far below any real drift.
func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Package core implements the paper's charging-scheduling algorithms:
//
//   - PlanFixed — Algorithm 3, "MinTotalDistance": the 2(K+2)-approximation
//     for the service cost minimization problem with fixed maximum
//     charging cycles.
//   - Greedy — the on-demand baseline of Section VII-A: charge every
//     sensor whose predicted residual lifetime falls below Δl.
//   - Var — "MinTotalDistance-var" (Section VI): the heuristic for
//     variable maximum charging cycles, re-planning on cycle updates and
//     patching under-provisioned sensors into their nearest round.
//
// All three produce sched.Schedule values whose cost is the paper's
// objective, the total distance travelled by the q mobile chargers.
package core

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/wsn"
)

// FixedOptions control PlanFixed.
type FixedOptions struct {
	// Rooted configures the q-rooted TSP subroutine.
	Rooted rooted.Options
	// Base is the geometric rounding base for charging-cycle classes;
	// 0 defaults to the paper's 2. Larger bases build fewer classes
	// (smaller K) at the price of rounding cycles down more
	// aggressively; the rounding-base ablation sweeps this.
	Base float64
	// Space, if non-nil, is a prebuilt metric over the network's points
	// (net.Space() order). Callers running several plans on one
	// topology pass the dense matrix once instead of re-materializing
	// it per call; it is only ever read.
	Space metric.Space
	// Slack is the robustness margin ε in [0, 1): the plan treats every
	// maximum charging cycle as τ_i·(1−ε), so each sensor banks an
	// ε-fraction of its cycle against travel-time noise, breakdown
	// recovery and consumption drift. 0 plans against the nominal
	// cycles (the paper's setting); the robustness harness sweeps it.
	Slack float64
	// AlignTau1, when positive, floors the base period τ_1 down to a
	// multiple of this grid — typically the simulator's decision
	// granularity Dt, so every dispatch time j·τ_1 lands on a decision
	// epoch and the plan can be replayed by a grid-locked policy.
	// Slack is applied first; an alignment that would push τ_1 to zero
	// is an error.
	AlignTau1 float64
}

func (o FixedOptions) base() (float64, error) {
	switch {
	case o.Base == 0:
		return 2, nil
	case o.Base > 1:
		return o.Base, nil
	default:
		return 0, fmt.Errorf("core: rounding base must be > 1, got %g", o.Base)
	}
}

// FixedPlan is the output of PlanFixed: the schedule plus the structural
// quantities the analysis of Algorithm 3 is phrased in.
type FixedPlan struct {
	Schedule *sched.Schedule
	// K is the number of cycle classes minus one: classes V_0..V_K.
	K int
	// Tau1 is the smallest maximum charging cycle τ_1, the base period.
	Tau1 float64
	// Classes[k] lists sensor IDs in class V_k (assigned cycle
	// Base^k · τ_1).
	Classes [][]int
	// RoundSolutions[k] is the q-rooted TSP solution D_k covering
	// classes V_0 ∪ ... ∪ V_k; every dispatched round reuses one of
	// these K+1 solutions.
	RoundSolutions []rooted.Solution
	// RatioBound is the proven approximation-ratio bound 2(K+2).
	RatioBound float64
	// LowerBound is a certified lower bound on the optimal service
	// cost, from Lemma 3 of the paper with the q-rooted MSF weight
	// substituted for the (unknown) optimal q-rooted TSP cost:
	// OPT >= max_k floor(T / (Base^(k+1)·τ_1)) · w(MSF_k).
	LowerBound float64
}

// Cost returns the plan's service cost.
func (p *FixedPlan) Cost() float64 { return p.Schedule.Cost() }

// PlanFixed runs Algorithm 3 (MinTotalDistance) on the network for
// monitoring period T: sensors are partitioned into classes V_k by
// rounding their cycles down to Base^k · τ_1, the K+1 prefix-class
// q-rooted TSP solutions D_0..D_K are built with Algorithm 2, and rounds
// are dispatched at every multiple j·τ_1 < T, round j reusing D_k where
// Base^k is the largest power of Base dividing j (capped at K).
//
// The returned schedule is always feasible (Lemma 2) and its cost is at
// most 2(K+2) times the optimum (Theorem 2).
func PlanFixed(net *wsn.Network, T float64, opt FixedOptions) (*FixedPlan, error) {
	if net.N() == 0 {
		return nil, fmt.Errorf("core: PlanFixed on network with no sensors")
	}
	if T <= 0 {
		return nil, fmt.Errorf("core: monitoring period must be positive, got %g", T)
	}
	base, err := opt.base()
	if err != nil {
		return nil, err
	}
	if opt.Slack < 0 || opt.Slack >= 1 {
		return nil, fmt.Errorf("core: FixedOptions.Slack must be in [0, 1), got %g", opt.Slack)
	}
	cycles := net.Cycles()
	if opt.Slack > 0 {
		// Plan against the tightened deadlines τ_i·(1−ε); everything
		// downstream (classes, dispatch cadence, feasibility check)
		// sees only the slacked cycles.
		for i := range cycles {
			cycles[i] *= 1 - opt.Slack
		}
	}
	src := opt.Space
	if src == nil {
		// Above metric.DenseLimit points an n×n matrix is prohibitive
		// (8n² bytes); plan over the exact grid index instead.
		if pts := net.Points(); len(pts) > metric.DenseLimit {
			src = metric.NewGrid(pts)
		} else {
			src = net.Space()
		}
	} else if src.Len() != net.Space().Len() {
		return nil, fmt.Errorf("core: FixedOptions.Space has %d points, network has %d", src.Len(), net.Space().Len())
	}
	var space metric.Space = src
	if _, isGrid := metric.AsGrid(src); !isGrid {
		space = metric.Materialize(src) // no-op when a Dense was passed in
	}
	depots := net.DepotIndices()

	tau1 := net.MinCycle() * (1 - opt.Slack)
	if opt.AlignTau1 > 0 {
		tau1 = math.Floor(tau1/opt.AlignTau1+1e-9) * opt.AlignTau1
		if tau1 <= 0 {
			return nil, fmt.Errorf("core: aligning τ_1 to the %g grid leaves no base period (min slacked cycle %g)",
				opt.AlignTau1, net.MinCycle()*(1-opt.Slack))
		}
	}
	classes, K := classify(cycles, tau1, base)

	// Build the K+1 prefix solutions D_0..D_K. D_k covers V_0..V_k.
	// Each prefix is a prefix of the next, and the sensor lists are
	// read-only downstream, so all K+1 share one cumulative backing
	// array instead of K+1 copies — at n=1M that is one 8 MB array, not
	// ~40 MB of near-duplicates.
	sols := make([]rooted.Solution, K+1)
	prefixes := make([][]int, K+1)
	total := 0
	for k := 0; k <= K; k++ {
		total += len(classes[k])
	}
	prefix := make([]int, 0, total)
	for k := 0; k <= K; k++ {
		prefix = append(prefix, classes[k]...)
		prefixes[k] = prefix[:len(prefix):len(prefix)]
	}
	// Largest prefix first: the solutions are independent, so order is
	// free, and D_K's build watermarks the pooled MSF arena at its final
	// size — the smaller prefixes then reuse it without regrowing any
	// buffer, so the peak heap is one arena, not an arena plus the
	// garbage of K regrowths.
	for k := K; k >= 0; k-- {
		sols[k] = rooted.Tours(space, depots, prefixes[k], opt.Rooted)
	}

	plan := &FixedPlan{
		K:              K,
		Tau1:           tau1,
		Classes:        classes,
		RoundSolutions: sols,
		RatioBound:     2 * (float64(K) + 2),
		Schedule:       &sched.Schedule{T: T},
	}

	// Dispatch at every j·τ_1 strictly inside (0, T). Round j reuses
	// D_k for k = min(K, ord_Base(j)). Tours are shared, not copied.
	for j := 1; ; j++ {
		t := float64(j) * tau1
		if t >= T-1e-9 {
			break
		}
		k := orderOf(j, base, K)
		plan.Schedule.Rounds = append(plan.Schedule.Rounds, sched.Round{
			Time:  t,
			Tours: sols[k].Tours,
		})
	}

	// Certified lower bound on OPT (Lemma 3 with MSF weights).
	for k := 0; k <= K; k++ {
		window := math.Pow(base, float64(k+1)) * tau1
		if n := math.Floor(T / window); n >= 1 {
			if lb := n * sols[k].ForestWeight; lb > plan.LowerBound {
				plan.LowerBound = lb
			}
		}
	}

	if check.Enabled {
		// Lemma 2's feasibility guarantee, verified against the actual
		// (unrounded, slacked) cycles, terminal gap included. Each D_k's
		// exact cover of V_0 ∪ … ∪ V_k is rooted.Tours' own postcondition.
		if err := plan.Schedule.Verify(cycles, 1e-9); err != nil {
			return nil, fmt.Errorf("core: PlanFixed feasibility: %w", err)
		}
	}
	return plan, nil
}

// classify partitions sensor IDs into classes by rounded cycle:
// sensor i ∈ V_k iff base^k·τ_1 <= τ_i < base^(k+1)·τ_1. Returns the
// classes (some possibly empty) and K, the index of the last class.
func classify(cycles []float64, tau1, base float64) ([][]int, int) {
	K := 0
	ks := make([]int, len(cycles))
	for i, c := range cycles {
		k := classIndex(c, tau1, base)
		ks[i] = k
		if k > K {
			K = k
		}
	}
	classes := make([][]int, K+1)
	for i, k := range ks {
		classes[k] = append(classes[k], i)
	}
	return classes, K
}

// classIndex computes floor(log_base(c / tau1)) robustly: floating-point
// log can land an exact power of base in the wrong class, so the result
// is verified and nudged against the defining inequality
// base^k <= c/tau1 < base^(k+1).
func classIndex(c, tau1, base float64) int {
	if c < tau1 {
		// Callers pass tau1 = min cycle, so this means inconsistent
		// inputs; class 0 keeps the schedule conservative (charged
		// at every round).
		return 0
	}
	ratio := c / tau1
	k := int(math.Floor(math.Log(ratio)/math.Log(base) + 1e-9))
	for k > 0 && math.Pow(base, float64(k)) > ratio*(1+1e-12) {
		k--
	}
	for math.Pow(base, float64(k+1)) <= ratio*(1+1e-12) {
		k++
	}
	return k
}

// orderOf returns min(cap, the largest k such that base^k divides j).
// For the paper's base 2 this is the number of trailing zero bits of j.
// Non-integer bases only ever divide j at k = 0.
func orderOf(j int, base float64, cap int) int {
	ib := int(base)
	if float64(ib) != base || ib < 2 { //lint:allow floateq exact integrality test on the cycle ratio, by design
		return 0
	}
	k := 0
	for k < cap && j%ib == 0 {
		k++
		j /= ib
	}
	return k
}

// ClassIndex returns the cycle class k a sensor with maximum charging
// cycle c falls into relative to the base period tau1: the largest k
// with base^k·τ_1 <= c, computed with the same nudged floating-point
// floor-log PlanFixed's classify uses. It is exported for the delta
// patcher (internal/delta), which must re-class joining and rate-updated
// sensors exactly as a from-scratch plan would — a one-ULP disagreement
// here would put a patched sensor into a different prefix solution than
// the reconciling background replan.
func ClassIndex(c, tau1, base float64) int { return classIndex(c, tau1, base) }

// RoundOrder returns which prefix solution D_k the round dispatched at
// j·τ_1 uses: min(cap, the largest k such that base^k divides j). It is
// the dispatch rule of PlanFixed's scheduling loop, exported so the
// delta patcher weighs per-solution cost changes by exactly the rounds
// that replay each solution.
func RoundOrder(j int, base float64, cap int) int { return orderOf(j, base, cap) }

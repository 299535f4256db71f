package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/check"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

func fixedModel(net *wsn.Network) energy.Model { return energy.NewFixed(net) }

// Var is the MinTotalDistance-var heuristic of Section VI for variable
// maximum charging cycles. It maintains a MinTotalDistance-style plan
// built from the *predicted* cycles; whenever a sensor's predicted cycle
// τ̂_i(t) leaves the feasibility band [τ̂'_i, 2·τ̂'_i) of its currently
// assigned charging cycle τ̂'_i, the plan is recomputed from scratch and
// then patched: sensors whose residual lifetime cannot reach their first
// scheduled charge (the set V^a) are injected into earlier rounds — those
// about to expire into an immediate emergency round C'_0, the rest into
// whichever of the feasible early rounds is geographically nearest,
// chosen by iterating the exact q-rooted MSF algorithm over auxiliary
// graphs whose super-roots stand for the rounds being grown.
type Var struct {
	// Rooted configures the q-rooted TSP subroutine.
	Rooted rooted.Options
	// NoLifetimeGuard reverts to the paper's literal trigger (cycle
	// leaves the band [τ̂', 2τ̂')), disabling the residual-lifetime
	// guard documented in DESIGN.md. Paper-faithful but unsafe: rare
	// in-band rate rises can starve sensors. For the guard ablation.
	NoLifetimeGuard bool
	// UpdateThreshold models the paper's reporting protocol: a sensor
	// sends its new predicted cycle to the base station only when the
	// relative change since its last report is at least this fraction
	// (Section VI-A, "if the variation is under the pre-defined
	// threshold, nothing is to be done"). 0 reports every change.
	// Larger thresholds save radio traffic at the price of staler
	// planning inputs; UpdatesReceived counts the reports.
	UpdateThreshold float64
	// NoMemo disables the cross-plan tour memoization (ablation and
	// verification hook); every round solution is then rebuilt from
	// scratch exactly as the pre-memoization code did.
	NoMemo bool

	plan     *varPlan
	assigned []float64 // τ̂'_i under the current plan
	// nextCharge[i] is the time of sensor i's next scheduled charge
	// under the current plan; the lifetime guard re-plans when a
	// sensor's predicted residual life can no longer reach it.
	nextCharge []float64
	// Replans counts plan recomputations (diagnostic).
	Replans int
	// PlanNs accumulates wall-clock nanoseconds spent planning — replans
	// and round-solution construction — as opposed to simulating
	// (diagnostic, non-deterministic; the harness surfaces it as the
	// per-phase Millis breakdown).
	PlanNs int64
	// UpdatesReceived counts cycle reports the base station received
	// (diagnostic; only meaningful with UpdateThreshold > 0).
	UpdatesReceived int

	reported []float64 // last cycle each sensor reported to the BS
	memo     tourMemo  // cross-plan (depots, members, options) tour cache

	// livesBuf backs replan's per-epoch lifetime snapshot; replans recur
	// throughout a run, so reusing it keeps the planner allocation-free
	// outside of genuinely new plan structures.
	livesBuf []float64
}

// varPlan is one planning epoch: a MinTotalDistance schedule anchored at
// t0 with base period tau1, plus first-period patches.
type varPlan struct {
	t0      float64
	tau1    float64
	K       int
	period  int                // 2^K rounds per period
	depots  []int              // depots active when the plan was built
	prefix  [][]int            // prefix[k]: sensor IDs of classes 0..k
	patches [][]int            // patches[j], j = 0..period: extra sensors in round j
	sols    []*rooted.Solution // lazily built D_k solutions
	patched map[int]*rooted.Solution
}

// NewVar returns a Var policy with the paper's defaults.
func NewVar(opt rooted.Options) *Var {
	return &Var{Rooted: opt}
}

// Name implements sim.Policy.
func (v *Var) Name() string { return "MinTotalDistance-var" }

// Init implements sim.Policy: build the initial plan at t = 0 from the
// (fully observed) initial cycles. All batteries are full, so V^a is
// empty and no patching occurs.
func (v *Var) Init(env *sim.Env) error {
	n := env.Net.N()
	v.assigned = make([]float64, n)
	v.nextCharge = make([]float64, n)
	v.reported = make([]float64, n)
	for i := 0; i < n; i++ {
		v.reported[i] = env.PredCycle(i) // deployment-time report
	}
	v.UpdatesReceived = n
	_, err := v.replan(env, 0)
	return err
}

// receiveReports refreshes the base station's view of sensor cycles,
// honouring the update threshold.
func (v *Var) receiveReports(env *sim.Env) {
	for i := range v.reported {
		cur := env.PredCycle(i)
		if v.UpdateThreshold <= 0 {
			if cur != v.reported[i] { //lint:allow floateq exact change detection against the last reported value
				v.reported[i] = cur
				v.UpdatesReceived++
			}
			continue
		}
		if rel := math.Abs(cur-v.reported[i]) / v.reported[i]; rel >= v.UpdateThreshold {
			v.reported[i] = cur
			v.UpdatesReceived++
		}
	}
}

// Decide implements sim.Policy.
func (v *Var) Decide(env *sim.Env, t float64) ([]rooted.Tour, error) {
	const eps = 1e-9
	v.receiveReports(env)
	if v.triggered(env) {
		emergency, err := v.replan(env, t)
		if err != nil {
			return nil, err
		}
		return emergency, nil
	}
	p := v.plan
	j := int(math.Round((t - p.t0) / p.tau1))
	if j < 1 || math.Abs(p.t0+float64(j)*p.tau1-t) > eps {
		return nil, nil // not a dispatch time under the current plan
	}
	t0 := time.Now() //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	sol, err := v.roundSolution(env, j)
	v.PlanNs += int64(time.Since(t0)) //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	if err != nil {
		return nil, err
	}
	if sol == nil {
		return nil, nil
	}
	for _, tour := range sol.Tours {
		for _, id := range tour.Stops {
			v.nextCharge[id] = v.nextRegular(id, t)
		}
	}
	return sol.Tours, nil
}

// nextRegular returns the first regular round time strictly after t that
// covers sensor id under the current plan (multiples of its assigned
// cycle from the plan anchor).
func (v *Var) nextRegular(id int, t float64) float64 {
	p := v.plan
	per := v.assigned[id]
	return p.t0 + (math.Floor((t-p.t0)/per+1e-9)+1)*per
}

// triggered reports whether any sensor's predicted cycle has left the
// feasibility band of its assigned charging cycle.
func (v *Var) triggered(env *sim.Env) bool {
	const eps = 1e-9
	if !sameInts(env.ActiveDepots(), v.plan.depots) {
		return true // a charger failed or recovered: re-plan around it
	}
	t := env.Now()
	for i := range env.Net.Sensors {
		cur, asg := v.reported[i], v.assigned[i]
		// The paper's two-way band: re-plan when the cycle falls below
		// its assignment or grows to at least twice it.
		if cur < asg-eps || cur >= 2*asg-eps {
			return true
		}
		// Lifetime guard: the paper's feasibility band keeps the
		// *cycle* admissible, but a sensor that was not full at the
		// last re-plan can still be starved by an in-band rate rise.
		// Re-plan (and hence V^a-patch) as soon as the predicted
		// residual life cannot reach the next scheduled charge.
		if !v.NoLifetimeGuard && t+env.ResidualLife(i) < v.nextCharge[i]-1e-6 {
			return true
		}
	}
	return false
}

// replan rebuilds the plan anchored at time t and returns the emergency
// round C'_0 to dispatch immediately (nil if empty).
func (v *Var) replan(env *sim.Env, t float64) ([]rooted.Tour, error) {
	t0 := time.Now()                                     //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	defer func() { v.PlanNs += int64(time.Since(t0)) }() //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	v.Replans++
	n := env.Net.N()
	if cap(v.livesBuf) < n {
		v.livesBuf = make([]float64, n)
	}
	cycles := v.reported // replan plans against the last reports
	lives := v.livesBuf[:n]
	minCycle := math.Inf(1)
	for i := 0; i < n; i++ {
		lives[i] = env.ResidualLife(i)
		minCycle = math.Min(minCycle, cycles[i])
	}
	// Align the base period to the decision grid (rounding down keeps
	// every assigned cycle at or below the predicted maximum, so
	// feasibility is preserved; see DESIGN.md).
	tau1 := math.Floor(minCycle/env.Dt) * env.Dt
	if tau1 < env.Dt {
		tau1 = env.Dt
	}
	classes, K := classify(cycles, tau1, 2)
	p := &varPlan{
		t0:      t,
		tau1:    tau1,
		K:       K,
		period:  1 << uint(K),
		depots:  append([]int(nil), env.ActiveDepots()...),
		prefix:  make([][]int, K+1),
		sols:    make([]*rooted.Solution, K+1),
		patched: make(map[int]*rooted.Solution),
	}
	var cum []int
	for k := 0; k <= K; k++ {
		cum = append(cum, classes[k]...)
		p.prefix[k] = append([]int(nil), cum...)
	}
	p.patches = make([][]int, p.period+1)
	for i := 0; i < n; i++ {
		k := classIndex(cycles[i], tau1, 2)
		if k > K {
			k = K
		}
		v.assigned[i] = math.Pow(2, float64(k)) * tau1
	}

	// V^a: sensors that cannot survive to their first scheduled charge.
	const slack = 1e-9
	var stranded []int // V^a \ V^a_t, to be patched into early rounds
	for i := 0; i < n; i++ {
		if lives[i] >= v.assigned[i]-slack {
			continue // reaches its first scheduled charge
		}
		if lives[i] <= tau1*(1+slack) {
			p.patches[0] = append(p.patches[0], i) // V^a_t: emergency
		} else {
			stranded = append(stranded, i)
		}
	}
	v.patchStranded(env, p, stranded, lives)
	v.plan = p

	// Record every sensor's next scheduled charge under the new plan.
	for i := 0; i < n; i++ {
		v.nextCharge[i] = t + v.assigned[i] // first regular covering round
	}
	for j, patch := range p.patches {
		for _, i := range patch {
			if j == 0 {
				// Charged right now; next is the first regular round.
				v.nextCharge[i] = t + v.assigned[i]
			} else {
				v.nextCharge[i] = t + float64(j)*p.tau1
			}
		}
	}

	if len(p.patches[0]) == 0 {
		return nil, nil
	}
	sol, err := v.roundSolution(env, 0)
	if err != nil {
		return nil, err
	}
	return sol.Tours, nil
}

// patchStranded implements the iterative assignment of Section VI: for
// k = 0..K, the stranded sensors whose residual lifetime class is k may
// be charged in any of the rounds C_0..C_{2^k}; they are attached to the
// geographically nearest one (possibly chaining through each other) by
// solving a q-rooted MSF on an auxiliary graph whose super-roots are the
// rounds' current node sets.
func (v *Var) patchStranded(env *sim.Env, p *varPlan, stranded []int, lives []float64) {
	if len(stranded) == 0 {
		return
	}
	byClass := make([][]int, p.K+1)
	for _, i := range stranded {
		k := lifeClass(lives[i], p.tau1)
		if k > p.K {
			k = p.K
		}
		byClass[k] = append(byClass[k], i)
	}
	for k := 0; k <= p.K; k++ {
		group := byClass[k]
		if len(group) == 0 {
			continue
		}
		nRounds := 1 << uint(k) // rounds 0..2^k inclusive => nRounds+1 roots
		if nRounds > p.period {
			nRounds = p.period
		}
		roundPts := make([][]geom.Point, nRounds+1)
		for j := 0; j <= nRounds; j++ {
			roundPts[j] = v.roundPoints(env, p, j)
		}
		aux := &auxSpace{
			env:    env,
			group:  group,
			rounds: roundPts,
		}
		rootIdx := make([]int, nRounds+1)
		for j := range rootIdx {
			rootIdx[j] = len(group) + j
		}
		sensorIdx := make([]int, len(group))
		for i := range sensorIdx {
			sensorIdx[i] = i
		}
		f := rooted.MSF(aux, rootIdx, sensorIdx)
		for j := 0; j <= nRounds; j++ {
			for _, m := range f.TreeOf(rootIdx[j]) {
				if m < len(group) { // skip the root itself
					p.patches[j] = append(p.patches[j], group[m])
				}
			}
		}
	}
}

// roundPoints returns the node locations currently in round j: its
// prefix-class sensors (for j >= 1), its patches so far, and all depots.
func (v *Var) roundPoints(env *sim.Env, p *varPlan, j int) []geom.Point {
	var pts []geom.Point
	if j >= 1 {
		for _, id := range p.prefix[p.roundClass(j)] {
			pts = append(pts, env.Net.Sensors[id].Pos)
		}
	}
	for _, id := range p.patches[j] {
		pts = append(pts, env.Net.Sensors[id].Pos)
	}
	for _, di := range p.depots {
		pts = append(pts, env.Net.Depots[di-env.Net.N()])
	}
	return pts
}

// roundClass returns the class index k of round j >= 1: the largest k
// with 2^k | j, capped at K (periodic beyond the first 2^K rounds).
func (p *varPlan) roundClass(j int) int {
	jj := j % p.period
	if jj == 0 {
		return p.K
	}
	k := 0
	for jj%2 == 0 {
		k++
		jj /= 2
	}
	if k > p.K {
		k = p.K
	}
	return k
}

// roundSolution returns the q-rooted TSP solution for round j of the
// current plan, building and caching it on first use. Rounds beyond the
// patched first period share the K+1 prefix solutions.
func (v *Var) roundSolution(env *sim.Env, j int) (*rooted.Solution, error) {
	p := v.plan
	patchedRound := j <= p.period && len(p.patches[j]) > 0
	if j == 0 && !patchedRound {
		return nil, nil // empty emergency round
	}
	if patchedRound {
		if sol, ok := p.patched[j]; ok {
			return sol, nil
		}
		var members []int
		if j >= 1 {
			members = append(members, p.prefix[p.roundClass(j)]...)
		}
		members = append(members, p.patches[j]...)
		sol := v.memoTours(env, p.depots, members)
		if check.Enabled {
			if err := sol.Validate(env.Space, p.depots, members); err != nil {
				return nil, fmt.Errorf("core: Var patched round %d: %w", j, err)
			}
		}
		p.patched[j] = sol
		return sol, nil
	}
	k := p.roundClass(j)
	if p.sols[k] == nil {
		p.sols[k] = v.memoTours(env, p.depots, p.prefix[k])
		if check.Enabled {
			if err := p.sols[k].Validate(env.Space, p.depots, p.prefix[k]); err != nil {
				return nil, fmt.Errorf("core: Var round class D_%d: %w", k, err)
			}
		}
	}
	return p.sols[k], nil
}

// MemoStats returns the hit/miss counters of the cross-plan tour cache
// (diagnostic; hits mean a re-plan re-requested a round whose depot set,
// member sequence and tour options were solved before).
func (v *Var) MemoStats() (hits, misses int) { return v.memo.hits, v.memo.misses }

// memoTours returns the q-rooted TSP solution for (depots, members)
// under v.Rooted, reusing a previously computed solution when an earlier
// planning epoch solved the identical subproblem. Dispatch rounds repeat
// member sets with period 2^K and re-plans mostly reshuffle a few
// classes, so identical (depots, member-sequence, options) tuples recur
// throughout a run; rooted.Tours is deterministic in those inputs, so a
// cache hit is bit-identical to recomputation. Cached solutions are
// shared read-only, the same contract varPlan.sols already relies on.
//
// The cache key is the exact tuple, not just its hash: entries carry
// their key material and hash buckets are compared element-wise, so a
// hash collision can never return the wrong tours.
func (v *Var) memoTours(env *sim.Env, depots, members []int) *rooted.Solution {
	if v.NoMemo {
		sol := rooted.Tours(env.Space, depots, members, v.Rooted)
		return &sol
	}
	key := memoKey(depots, members, v.Rooted)
	h := hashInts(key)
	for _, e := range v.memo.entries[h] {
		if sameInts(e.key, key) {
			v.memo.hits++
			return e.sol
		}
	}
	v.memo.misses++
	sol := rooted.Tours(env.Space, depots, members, v.Rooted)
	if v.memo.entries == nil {
		v.memo.entries = make(map[uint64][]memoEntry)
	}
	v.memo.entries[h] = append(v.memo.entries[h], memoEntry{key: key, sol: &sol})
	return &sol
}

// tourMemo is the Var planner's cross-plan cache of round solutions.
// It is valid for the lifetime of one simulation run: the metric space
// is fixed at Init and every key captures the remaining inputs.
type tourMemo struct {
	entries      map[uint64][]memoEntry
	hits, misses int
}

type memoEntry struct {
	key []int
	sol *rooted.Solution
}

// memoKey encodes the (options, depots, members) tuple as a flat int
// sequence. Order matters and is preserved: rooted.Tours output depends
// on the order of both index lists, so only an exactly repeated call is
// allowed to hit.
func memoKey(depots, members []int, opt rooted.Options) []int {
	key := make([]int, 0, 3+len(depots)+len(members))
	refine := 0
	if opt.Refine {
		refine = 1
	}
	key = append(key, int(opt.Method), refine, len(depots))
	key = append(key, depots...)
	key = append(key, members...)
	return key
}

// hashInts is FNV-1a folded over the key words.
func hashInts(key []int) uint64 {
	var h uint64 = 1469598103934665603
	for _, k := range key {
		x := uint64(k)
		for b := 0; b < 8; b++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	return h
}

// sameInts reports whether two int slices are element-wise equal.
func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lifeClass returns the largest k >= 0 with 2^k·tau1 strictly below l
// (so a charge at round 2^k happens strictly before the predicted
// expiry). Callers guarantee l > tau1.
func lifeClass(l, tau1 float64) int {
	k := int(math.Floor(math.Log2(l / tau1)))
	for k > 0 && math.Pow(2, float64(k))*tau1 >= l-1e-12 {
		k--
	}
	if k < 0 {
		k = 0
	}
	return k
}

// auxSpace is the auxiliary metric space of the patching step: indices
// 0..len(group)-1 are stranded sensors (Euclidean between each other);
// indices len(group).. are super-roots, one per candidate round, at the
// nearest-member distance from each sensor. Root-to-root distances are
// 0; rooted.MSF copies them into its Dense but never reads them.
type auxSpace struct {
	env    *sim.Env
	group  []int
	rounds [][]geom.Point
}

func (a *auxSpace) Len() int { return len(a.group) + len(a.rounds) }

func (a *auxSpace) Dist(i, j int) float64 {
	m := len(a.group)
	si, sj := i < m, j < m
	switch {
	case si && sj:
		return a.env.Net.Sensors[a.group[i]].Pos.Dist(a.env.Net.Sensors[a.group[j]].Pos)
	case si != sj:
		if sj {
			i, j = j, i
		}
		pos := a.env.Net.Sensors[a.group[i]].Pos
		_, d := geom.NearestIndex(pos, a.rounds[j-m])
		return d
	default:
		return 0 // root-root, never read
	}
}

// RunVar runs the MinTotalDistance-var heuristic under the given true
// energy model for period T at decision granularity dt (0 defaults to
// τ_min) and EWMA factor gamma (0 defaults to 1).
func RunVar(net *wsn.Network, model energy.Model, T, dt, gamma float64, opt rooted.Options) (sim.Result, *Var, error) {
	pol := NewVar(opt)
	res, err := sim.Run(net, model, pol, sim.Config{T: T, Dt: dt, Gamma: gamma})
	if err != nil {
		return sim.Result{}, nil, fmt.Errorf("core: RunVar: %w", err)
	}
	return res, pol, nil
}

// RunGreedyVar runs the greedy baseline under a variable energy model.
func RunGreedyVar(net *wsn.Network, model energy.Model, T, dt, gamma float64, opt rooted.Options) (sim.Result, error) {
	return sim.Run(net, model, &Greedy{Rooted: opt}, sim.Config{T: T, Dt: dt, Gamma: gamma})
}

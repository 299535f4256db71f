package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metric"
	"repro/internal/rooted"
)

// Redispatch wraps a base policy with the breakdown/deadline reaction
// loop that turns an open-loop plan into a closed-loop one. At every
// decision epoch it
//
//  1. re-roots: tours the base policy aimed at a depot that is down are
//     not dropped by the simulator — their stops join a rescue set;
//  2. recovers: sensors the disturbed run stranded (Env.Requeued) join
//     the rescue set;
//  3. watches deadlines: when the base policy can estimate its next
//     scheduled charge (NextChargeEstimator), any sensor predicted to
//     die before then — residual lifetime shorter than the wait plus a
//     safety margin — is topped up. If chargers are rolling this epoch
//     anyway the sensor is folded into a dispatched tour by cheapest
//     insertion (a small detour); otherwise a dedicated rescue is
//     dispatched, as late as safely possible so one rescue buys a full
//     battery of headroom;
//
// and then covers the rescue set with fresh q-rooted tours from the
// currently active depots.
//
// Under the event-driven runner the deadline watch is driven by
// depletion keys instead of a full O(n) inspection: each non-pressured
// sensor records a horizon (safe[i], keyRate[i]) out to which the
// pressure test provably cannot fire — capped at the sensor's next
// rate-grid boundary and next scheduled charge, and shortened when the
// true drain outpaces the prediction — and is skipped until the horizon
// expires or its predicted rate rises above the rate the horizon was
// derived with. The reference runner keeps the full scan, so the
// equivalence suite pins the filter's soundness.
type Redispatch struct {
	// Inner is the base policy being hardened.
	Inner Policy
	// Redispatches counts epochs at which at least one rescue tour was
	// dispatched.
	Redispatches int
	// Rescued counts sensors covered by dedicated rescue tours.
	Rescued int
	// Inserted counts pressured sensors topped up by cheapest insertion
	// into an already-dispatched tour instead of a dedicated rescue.
	Inserted int

	// margin is the deadline-pressure safety margin in time units: 1.5
	// decision epochs (one epoch of reaction latency plus half an epoch
	// of travel slop), set by Init.
	margin float64
	est    NextChargeEstimator
	rnd    NextRoundEstimator
	ins    inserter
}

// Name implements Policy.
func (r *Redispatch) Name() string { return fmt.Sprintf("redispatch(%s)", r.Inner.Name()) }

// Init implements Policy: it initializes the inner policy and sets the
// margin from the run's decision epoch.
func (r *Redispatch) Init(env *Env) error {
	if r.Inner == nil {
		return fmt.Errorf("sim: Redispatch needs an inner policy")
	}
	if err := r.Inner.Init(env); err != nil {
		return err
	}
	r.margin = 1.5 * env.Dt
	r.est, _ = r.Inner.(NextChargeEstimator)
	r.rnd, _ = r.Inner.(NextRoundEstimator)
	r.Redispatches = 0
	r.Rescued = 0
	r.Inserted = 0
	if env.lazyInspect {
		// The filter state lives in the run's Scratch; a reused arena
		// still holds the previous replication's horizons, which would
		// be unsound skips here.
		n := env.Net.N()
		safe := growF64(&env.sc.safe, n)
		keyRate := growF64(&env.sc.keyRate, n)
		for i := range safe {
			safe[i] = 0
			keyRate[i] = 0
		}
	}
	return nil
}

// inserter is the per-Decide state of grid-anchored cheapest insertion:
// membership marks over the kept tours' stops and the tour each marked
// stop belongs to, built lazily on the first insertion of an epoch and
// cleared after the deadline watch.
type inserter struct {
	g      *metric.Grid
	coords metric.Coords
	marks  []bool
	tourOf []int32
	built  bool
}

// reset prepares the inserter for a Decide call on env; grid anchoring
// engages only when the run's metric is the spatial grid (dense small-n
// runs keep the exhaustive scan).
func (ins *inserter) reset(env *Env) {
	ins.g = nil
	ins.built = false
	if g, ok := metric.AsGrid(env.Space); ok {
		ins.g = g
		ins.coords = g.Coords()
	}
}

// build marks the stops of every non-empty kept tour. The marks buffer
// is all-false on entry: growBool zeroes on (re)allocation and clear
// unmarks everything after every use.
func (ins *inserter) build(env *Env, kept []rooted.Tour) {
	ins.marks = growBool(&env.sc.stopB, env.Space.Len())
	ins.tourOf = growI32(&env.sc.tourOf, env.Space.Len())
	for ti := range kept {
		for _, s := range kept[ti].Stops {
			ins.marks[s] = true
			ins.tourOf[s] = int32(ti)
		}
	}
	ins.built = true
}

// clear unmarks everything build and the insertions marked. kept must
// be the final kept slice of the epoch (insertions mutate it in place,
// so its stops are a superset of what was marked).
func (ins *inserter) clear(kept []rooted.Tour) {
	if !ins.built {
		return
	}
	for ti := range kept {
		for _, s := range kept[ti].Stops {
			ins.marks[s] = false
		}
	}
}

// insert tops sensor i up by cheapest insertion into one of the kept
// tours, cloning the chosen tour's stop list first — inner policies may
// reuse their tour slices across epochs, so they are never mutated in
// place. On the spatial grid the candidate tour is anchored via the
// k-NN index — the tour owning the marked stop nearest to i — and only
// that tour's positions are scanned; on a dense metric every position
// of every tour is scanned as before.
func (r *Redispatch) insert(env *Env, kept []rooted.Tour, i int) []rooted.Tour {
	best, bestPos, bestDelta := -1, 0, math.Inf(1)
	if ins := &r.ins; ins.g != nil {
		if !ins.built {
			ins.build(env, kept)
		}
		x, y := ins.coords.At(i)
		marks := ins.marks
		anchor, _ := ins.g.Index().NearestTo(x, y, func(k int) bool { return marks[k] })
		if anchor < 0 {
			return kept
		}
		best = int(ins.tourOf[anchor])
		stops := kept[best].Stops
		for p := 0; p <= len(stops); p++ {
			prev, next := kept[best].Depot, kept[best].Depot
			if p > 0 {
				prev = stops[p-1]
			}
			if p < len(stops) {
				next = stops[p]
			}
			delta := env.Space.Dist(prev, i) + env.Space.Dist(i, next) - env.Space.Dist(prev, next)
			if delta < bestDelta {
				bestPos, bestDelta = p, delta
			}
		}
	} else {
		for ti := range kept {
			stops := kept[ti].Stops
			if len(stops) == 0 {
				continue
			}
			for p := 0; p <= len(stops); p++ {
				prev, next := kept[ti].Depot, kept[ti].Depot
				if p > 0 {
					prev = stops[p-1]
				}
				if p < len(stops) {
					next = stops[p]
				}
				delta := env.Space.Dist(prev, i) + env.Space.Dist(i, next) - env.Space.Dist(prev, next)
				if delta < bestDelta {
					best, bestPos, bestDelta = ti, p, delta
				}
			}
		}
		if best < 0 {
			return kept
		}
	}
	old := kept[best].Stops
	stops := make([]int, 0, len(old)+1)
	stops = append(stops, old[:bestPos]...)
	stops = append(stops, i)
	stops = append(stops, old[bestPos:]...)
	kept[best].Stops = stops
	kept[best].Cost += bestDelta
	if ins := &r.ins; ins.built {
		ins.marks[i] = true
		ins.tourOf[i] = int32(best)
	}
	return kept
}

// Decide implements Policy.
func (r *Redispatch) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	tours, err := r.Inner.Decide(env, t)
	if err != nil {
		return nil, err
	}
	active := make(map[int]bool)
	for _, d := range env.ActiveDepots() {
		active[d] = true
	}
	covered := make(map[int]bool)
	rescue := make(map[int]bool)
	kept := tours[:0]
	for _, tour := range tours {
		if active[tour.Depot] || len(tour.Stops) == 0 {
			kept = append(kept, tour)
			for _, s := range tour.Stops {
				covered[s] = true
			}
			continue
		}
		for _, s := range tour.Stops {
			rescue[s] = true
		}
	}
	for _, s := range env.Requeued() {
		rescue[s] = true
	}
	if r.est != nil {
		haveTours := false
		for _, tour := range kept {
			if len(tour.Stops) > 0 {
				haveTours = true
				break
			}
		}
		var safe, keyRate []float64
		if env.lazyInspect {
			safe, keyRate = env.sc.safe, env.sc.keyRate
		}
		r.ins.reset(env)
		// soon collects pressured, non-deferrable sensors that are not
		// yet urgent; they ride along if anything forces a sortie.
		var soon []int
		urgent := false
		for i := 0; i < env.Net.N(); i++ {
			// Depletion-key skip: at the sensor's last inspection the
			// pressure test provably cannot fire before safe[i] as long
			// as its predicted rate stays at or below keyRate[i]; both
			// must be re-proved the moment either bound is crossed.
			if safe != nil && t < safe[i] && env.Pred.Predict(i) <= keyRate[i] {
				continue
			}
			if covered[i] {
				continue
			}
			// A sensor must survive until its next scheduled charge —
			// or the end of the horizon, whichever comes first.
			wait := math.Min(r.est.NextCharge(i, t), env.T) - t
			if wait <= 0 {
				if safe != nil {
					safe[i] = 0
				}
				continue
			}
			life := env.ResidualLife(i)
			if life >= wait+r.margin {
				if safe != nil {
					safe[i], keyRate[i] = r.pressureHorizon(env, i, t, wait, life)
				}
				continue
			}
			if safe != nil {
				safe[i] = 0
			}
			// Defer if the sensor survives to the policy's next
			// dispatch (with margin): a later epoch can still save it,
			// so don't pay for a top-up now.
			if r.rnd != nil {
				gap := math.Min(r.rnd.NextRound(t), env.T) - t
				if life >= gap+r.margin {
					continue
				}
			}
			if haveTours {
				// Chargers are rolling anyway: top the sensor up via
				// cheapest insertion into a dispatched tour — a small
				// detour instead of a dedicated round trip later.
				kept = r.insert(env, kept, i)
				covered[i] = true
				r.Inserted++
				continue
			}
			// No tour to piggyback on: a dedicated rescue, but as late
			// as safely possible — only when waiting one more decision
			// epoch would be risky. Without the urgency test a
			// chronically pressured sensor — one whose full-battery
			// lifetime is shorter than its schedule interval — would be
			// re-rescued every epoch.
			if life < env.Dt+r.margin {
				rescue[i] = true
				urgent = true
			} else {
				soon = append(soon, i)
			}
		}
		r.ins.clear(kept)
		if urgent || len(rescue) > 0 {
			// Something forces a sortie anyway — a deadline, a dropped
			// tour, stranded sensors: amortize it over every sensor that
			// would otherwise need its own rescue shortly.
			for _, i := range soon {
				rescue[i] = true
			}
		}
	}
	for s := range covered {
		delete(rescue, s)
	}
	if len(rescue) == 0 {
		return kept, nil
	}
	need := make([]int, 0, len(rescue))
	for s := range rescue {
		need = append(need, s)
	}
	sort.Ints(need)
	sol := rooted.Tours(env.Space, env.ActiveDepots(), need, rooted.Options{})
	added := false
	for _, tour := range sol.Tours {
		if len(tour.Stops) == 0 {
			continue
		}
		kept = append(kept, tour)
		added = true
	}
	if added {
		r.Redispatches++
		r.Rescued += len(need)
	}
	return kept, nil
}

// pressureHorizon derives sensor i's depletion key after a passed
// pressure test at epoch t: the latest instant su ≤ t + wait up to
// which `life ≥ wait + margin` provably keeps holding, assuming only
// that the predicted rate does not rise above its current value p.
//
// Within [t, su): the true drain rate is exactly the current one (su is
// capped at the next merged rate-grid boundary), the next scheduled
// charge is unchanged (su is capped at t + wait, and a realized charge
// can only raise the residual), so residual(t') ≥ residual(t) −
// trueRate·(t'−t) and wait(t') = wait − (t'−t). The slack
// life − wait − margin (in predicted-lifetime units) then shrinks at
// rate trueRate/p − 1; when that is positive the horizon is the slack's
// crossing time, pulled one epoch earlier to absorb FP rounding.
func (r *Redispatch) pressureHorizon(env *Env, i int, t, wait, life float64) (su, p float64) {
	p = env.Pred.Predict(i)
	if !(p > 0) {
		return 0, 0 // degenerate prediction: never skip
	}
	trueRate, until := env.trueRateInfo(i)
	// Cap half an epoch short of the scheduled charge so no epoch that
	// lands within FP noise of the charge instant (where NextCharge
	// rolls over to the following round) is ever skipped.
	su = math.Min(until, t+wait-0.5*env.Dt)
	if sigma := trueRate/p - 1; sigma > 0 {
		if cross := t + (life-wait-r.margin)/sigma - env.Dt; cross < su {
			su = cross
		}
	}
	return su, p
}

package sim

import (
	"math"

	"repro/internal/disturb"
	"repro/internal/energy"
)

// residEngine is the lazy residual-energy integrator behind RunDisturbed.
//
// Instead of re-integrating every sensor at every event (PR 9's
// consumeDisturbed, O(events · n)), each sensor carries a committed
// residual value and the timestamp it is valid at, and is advanced only
// when something actually looks at it: a charge, a policy inspection,
// or the end-of-horizon death check. Total integration work is
// O(n · rate-slots + touches), independent of the event count.
//
// Canonical segmentation invariant: committed integration steps are cut
// ONLY at the merged piecewise-constant rate grid (energy-model slot
// boundaries and the disturbance model's RateStep boundaries), never at
// event times. The partial tail from the last boundary to an inspection
// time is evaluated on the fly and never stored. Because each sensor's
// committed trajectory is therefore a pure function of (rates, its own
// touch times), any interleaving of advances and peeks — linear-scan
// reference order, event-heap order, pressure-filtered order — yields
// bit-identical residuals, deaths and delivered energy. That invariant
// is what makes the event-driven runner provably equivalent to the
// reference runner (DESIGN.md §17).
//
// Deaths are detected when the committed segment containing the
// zero-crossing completes, with the segment end as the recorded
// timestamp — or at the touch time for crossings inside a partial tail
// observed by a charge or the terminal sweep. Dead sensors stop
// consuming and revive (to full capacity) when charged.
type residEngine struct {
	model energy.Model
	dm    disturb.Model
	slot  float64 // energy-model slot length (+Inf for Fixed)
	dslot float64 // disturbance RateStep (+Inf for None)

	// val is the committed residual at time upTo; it aliases
	// Env.Residual so the benign accessors keep working.
	val  []float64
	upTo []float64
	dead []bool
	caps []float64

	res *Result // death accounting sink (Deaths, FirstDeath)
}

func newResidEngine(env *Env, dm disturb.Model, sc *Scratch, res *Result) *residEngine {
	n := len(env.Residual)
	re := &sc.eng
	re.model = env.Model
	re.dm = dm
	re.slot = env.Model.SlotLength()
	re.dslot = dm.RateStep()
	re.val = env.Residual
	re.upTo = growF64(&sc.upTo, n)
	re.dead = growBool(&sc.engDead, n)
	re.caps = growF64(&sc.caps, n)
	re.res = res
	for i := range re.upTo {
		re.upTo[i] = 0
		re.dead[i] = false
		re.caps[i] = env.Net.Sensors[i].Capacity
	}
	return re
}

// rate is the true consumption rate of sensor i at time t: the energy
// model's piecewise-constant rate times the disturbance factor, exactly
// the product PR 9's consumeDisturbed applied per piece.
func (re *residEngine) rate(i int, t float64) float64 {
	return re.model.Rate(i, t) * re.dm.RateFactor(i, t)
}

// nextBoundary returns the first merged rate-grid boundary strictly
// after cur, or +Inf when both grids are unslotted. The boundary
// formula matches consume/consumeDisturbed bit for bit.
func (re *residEngine) nextBoundary(cur float64) float64 {
	next := math.Inf(1)
	if !math.IsInf(re.slot, 1) {
		next = (math.Floor(cur/re.slot+1e-9) + 1) * re.slot
	}
	if !math.IsInf(re.dslot, 1) {
		if b := (math.Floor(cur/re.dslot+1e-9) + 1) * re.dslot; b < next {
			next = b
		}
	}
	return next
}

// advance commits every full rate segment of sensor i that ends at or
// before b. The partial tail past the last boundary stays uncommitted;
// partial() prices it on demand.
func (re *residEngine) advance(i int, b float64) {
	cur := re.upTo[i]
	for cur < b-1e-12 {
		next := re.nextBoundary(cur)
		if next > b {
			break
		}
		if !re.dead[i] {
			re.val[i] -= re.rate(i, cur) * (next - cur)
			if re.val[i] < -1e-9*re.caps[i] {
				re.kill(i, next)
			} else if re.val[i] < 0 {
				re.val[i] = 0
			}
		}
		cur = next
	}
	if cur > re.upTo[i] {
		re.upTo[i] = cur
	}
}

// partial returns the un-clamped residual of sensor i at time b,
// pricing the uncommitted tail [upTo, b) at the tail's (constant)
// rate. advance(i, b) must have run first so the tail spans at most
// one merged rate segment.
func (re *residEngine) partial(i int, b float64) float64 {
	if re.dead[i] {
		return 0
	}
	p := re.val[i]
	if b > re.upTo[i] {
		p -= re.rate(i, re.upTo[i]) * (b - re.upTo[i])
	}
	return p
}

// peek returns sensor i's residual at time b for policy inspection:
// committed segments are advanced (recording any death they contain),
// the partial tail is priced without being stored, and the visible
// value is clamped at zero like every stored residual.
func (re *residEngine) peek(i int, b float64) float64 {
	re.advance(i, b)
	p := re.partial(i, b)
	if p < 0 {
		p = 0
	}
	return p
}

// charge recharges sensor i to capacity at time t and returns the
// energy delivered. A zero-crossing inside the partial tail counts as
// a death at t — the sensor needed energy before the charger got
// there — exactly like the reference integrator's final piece.
func (re *residEngine) charge(i int, t float64) float64 {
	re.advance(i, t)
	p := re.partial(i, t)
	if !re.dead[i] {
		if p < -1e-9*re.caps[i] {
			re.kill(i, t)
			p = 0
		} else if p < 0 {
			p = 0
		}
	}
	delivered := re.caps[i] - p
	re.val[i] = re.caps[i]
	re.upTo[i] = t
	re.dead[i] = false
	return delivered
}

// finalize advances every sensor to the end of the horizon and records
// deaths hiding in the terminal partial tails.
func (re *residEngine) finalize(T float64) {
	for i := range re.val {
		re.advance(i, T)
		if re.dead[i] {
			continue
		}
		if re.partial(i, T) < -1e-9*re.caps[i] {
			re.kill(i, T)
		}
	}
}

// kill records sensor i's death at time ts. Deaths is a plain count
// and FirstDeath a running minimum, so the aggregate is independent of
// the order different runners discover per-sensor crossings in.
func (re *residEngine) kill(i int, ts float64) {
	re.val[i] = 0
	re.dead[i] = true
	re.res.Deaths++
	if re.res.FirstDeath < 0 || ts < re.res.FirstDeath {
		re.res.FirstDeath = ts
	}
}

// Package sim is the discrete-time simulator the evaluation runs on.
//
// It advances a rechargeable WSN over the monitoring period [0, T) at a
// fixed decision granularity Dt, integrating each sensor's true energy
// consumption (piecewise constant per model slot), feeding per-sensor
// rate observations to the EWMA predictor, and invoking a charging Policy
// at every decision epoch. Visited sensors are recharged to full
// capacity instantly — the paper's assumption that a charging task is
// several orders of magnitude shorter than a charging cycle. The
// simulator records the resulting schedule (hence the service cost), the
// number of dispatches, and any sensor deaths.
package sim

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/energy"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/wsn"
)

// Config parameterizes a simulation run.
type Config struct {
	// T is the monitoring period; required, positive.
	T float64
	// Dt is the decision granularity; 0 defaults to the network's
	// minimum charging cycle (the paper's τ_min = 1).
	Dt float64
	// Gamma is the EWMA smoothing factor; 0 defaults to 1 (predict the
	// last observed rate — exact for piecewise-constant rates).
	Gamma float64
	// Outages injects charger failures: during an outage window the
	// depot's vehicle is unavailable and policies must dispatch the
	// remaining chargers only. At least one depot must remain active
	// at every instant.
	Outages []Outage
	// Space, if non-nil, is a prebuilt metric over the network's points
	// (sensors then depots, as net.Space() orders them). Callers that
	// run several algorithms on one topology build the dense matrix
	// once and share it read-only; nil rebuilds it from the network.
	Space metric.Space
}

// Outage takes the charger at depot index Depot (0-based) offline over
// [From, To).
type Outage struct {
	Depot    int
	From, To float64
}

// Env is the world state a Policy observes. Policies must treat all
// fields as read-only except through the documented helpers.
type Env struct {
	Net    *wsn.Network
	Space  metric.Space
	Depots []int
	Model  energy.Model
	T, Dt  float64

	// Pred is the EWMA rate predictor, updated every epoch.
	Pred *energy.EWMA

	// residual is each sensor's stored residual energy; read it through
	// Residual, which is exact under every runner.
	residual []float64
	outages  []Outage
	now      float64
	// requeued holds sensors stranded since the previous decision epoch
	// — stops of tours a charger breakdown interrupted or a dropped
	// dispatch never served. Populated by RunDisturbed only; cleared
	// after every Decide.
	requeued []int

	// eng, when non-nil, is the lazy residual integrator the disturbed
	// runners install: residual entries are then only valid at each
	// sensor's own commit time and every read must go through the
	// engine (Residual does).
	eng *residEngine
	// lazyInspect is true under the event-driven runner only; policies
	// with an O(events)-compatible fast path (Redispatch's pressure
	// filter) key on it, so the reference runner keeps full scans.
	lazyInspect bool
	// sc is the arena the current run carves working memory from.
	sc *Scratch
}

// Requeued returns the sensors stranded since the previous decision
// epoch: stops whose tour was interrupted by a charger breakdown, or
// whose dispatch was dropped because its depot was down. The plain Run
// never strands sensors, so the slice is only ever non-empty under
// RunDisturbed. Policies that want to recover stranded sensors (see
// Redispatch) should fold these into their next dispatch; the simulator
// clears the list after every Decide call.
func (e *Env) Requeued() []int { return e.requeued }

// Now returns the current simulation time.
func (e *Env) Now() float64 { return e.now }

// PredRate returns the predicted consumption rate of sensor i.
func (e *Env) PredRate(i int) float64 { return e.Pred.Predict(i) }

// PredCycle returns the predicted maximum charging cycle of sensor i,
// τ̂_i = B_i / ρ̂_i.
func (e *Env) PredCycle(i int) float64 {
	return e.Net.Sensors[i].Capacity / e.Pred.Predict(i)
}

// Residual returns sensor i's residual energy at the current time.
// Under the disturbed runners it reads through the lazy residual engine,
// which integrates the uncommitted tail without storing it, so looking
// never changes the run.
func (e *Env) Residual(i int) float64 {
	if e.eng != nil {
		return e.eng.peek(i, e.now)
	}
	return e.residual[i]
}

// ResidualLife returns the predicted residual lifetime of sensor i,
// l̂_i = residual energy / ρ̂_i.
func (e *Env) ResidualLife(i int) float64 { return e.Residual(i) / e.Pred.Predict(i) }

// trueRateInfo reports sensor i's true consumption rate at the current
// instant and the first merged rate-grid boundary after it — the span
// over which that rate is guaranteed constant. Only valid under the
// disturbed runners (eng non-nil); Redispatch's pressure filter uses it
// to bound how long a non-pressured sensor stays provably safe.
func (e *Env) trueRateInfo(i int) (rate, until float64) {
	re := e.eng
	re.advance(i, e.now)
	return re.rate(i, e.now), re.nextBoundary(e.now)
}

// ActiveDepots returns the metric-space indices of the depots whose
// chargers are available at the current simulation time. With no
// injected outages it equals Depots. Policies must root their tours in
// this set, not in Depots.
func (e *Env) ActiveDepots() []int {
	if len(e.outages) == 0 {
		return e.Depots
	}
	down := make(map[int]bool)
	for _, o := range e.outages {
		if e.now >= o.From && e.now < o.To {
			down[o.Depot] = true
		}
	}
	if len(down) == 0 {
		return e.Depots
	}
	active := make([]int, 0, len(e.Depots))
	for l, idx := range e.Depots {
		if !down[l] {
			active = append(active, idx)
		}
	}
	return active
}

// Policy decides when and whom to charge.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Init is called once with the fully-charged world at t = 0.
	Init(env *Env) error
	// Decide is called at every decision epoch t = Dt, 2·Dt, ... < T,
	// after energy consumption up to t has been applied. It returns
	// the tours to dispatch at t (nil for "no dispatch"). Returned
	// tours must be rooted at depot indices of env.Space.
	Decide(env *Env, t float64) ([]rooted.Tour, error)
}

// Result summarizes a simulation run.
type Result struct {
	Schedule *sched.Schedule
	// Deaths is the number of sensors whose energy ever reached zero
	// before being recharged.
	Deaths int
	// FirstDeath is the time of the first death, or -1 if none.
	FirstDeath float64
	// Epochs is the number of decision epochs simulated.
	Epochs int
	// EnergyDelivered is the total energy transferred into sensors
	// (sum over charge events of capacity minus residual).
	EnergyDelivered float64
	// Charges is the number of sensor-charge events.
	Charges int

	// The remaining fields are populated by RunDisturbed only; the
	// benign Run leaves them zero.

	// GapViolations counts charge gaps (including each sensor's
	// terminal gap to T) that exceeded the sensor's nominal maximum
	// charging cycle τ_i.
	GapViolations int
	// NearMisses counts gaps within the near-miss fraction of τ_i
	// (ate into the safety margin) without exceeding it.
	NearMisses int
	// MaxGapRatio is the worst observed gap/τ_i ratio across all
	// sensors and gaps; > 1 means at least one violation.
	MaxGapRatio float64
	// Requeued counts sensor-instances stranded by breakdowns or
	// dropped dispatches and handed back to the policy.
	Requeued int
	// InterruptedSorties counts in-flight tours cut short by a charger
	// breakdown.
	InterruptedSorties int
	// DroppedTours counts dispatched tours discarded because their
	// depot was down at dispatch time.
	DroppedTours int
	// TelemetryLost counts sensor reports that never reached the base
	// station.
	TelemetryLost int
	// TelemetryLate counts sensor reports delivered at least one epoch
	// after issue.
	TelemetryLate int
	// DrivenCost is the distance chargers actually drove: completed
	// tours in full, interrupted ones up to the abort point plus the
	// return leg. Under disturbance it differs from Schedule.Cost(),
	// which prices the dispatched plans.
	DrivenCost float64
}

// Cost returns the service cost of the run.
func (r Result) Cost() float64 { return r.Schedule.Cost() }

// Run simulates policy over net under the given true-energy model.
func Run(net *wsn.Network, model energy.Model, policy Policy, cfg Config) (Result, error) {
	env, err := newEnv(net, model, cfg, &Scratch{})
	if err != nil {
		return Result{}, err
	}
	dt := env.Dt
	pred := env.Pred
	for i := range net.Sensors {
		pred.Observe(i, model.Rate(i, 0))
	}
	if err := policy.Init(env); err != nil {
		return Result{}, fmt.Errorf("sim: policy %s init: %w", policy.Name(), err)
	}

	res := Result{
		Schedule:   &sched.Schedule{T: cfg.T},
		FirstDeath: -1,
	}
	dead := make([]bool, net.N())
	active := make(map[int]bool)
	const eps = 1e-9
	for step := 1; ; step++ {
		t := float64(step) * dt
		if t >= cfg.T-eps {
			// Tail consumption from the last epoch to T.
			consume(env, float64(step-1)*dt, cfg.T, dead, &res)
			break
		}
		consume(env, t-dt, t, dead, &res)
		env.now = t
		for i := range net.Sensors {
			pred.Observe(i, model.Rate(i, t))
		}
		tours, err := policy.Decide(env, t)
		if err != nil {
			return Result{}, policyErr(policy.Name(), t, err)
		}
		if len(tours) == 0 {
			res.Epochs++
			continue
		}
		clear(active)
		for _, d := range env.ActiveDepots() {
			active[d] = true
		}
		for _, tour := range tours {
			if !active[tour.Depot] && len(tour.Stops) > 0 {
				return Result{}, outageDispatchErr(policy.Name(), tour.Depot, t)
			}
		}
		if check.Enabled {
			// Structural validity of every dispatched tour: depot and
			// stops inside the space, no sensor charged twice per tour.
			for _, tour := range tours {
				if err := check.Tour(env.Space.Len(), tour.Depot, tour.Stops); err != nil {
					return Result{}, policyErr(policy.Name(), t, err)
				}
			}
		}
		for _, tour := range tours {
			for _, id := range tour.Stops {
				if id < 0 || id >= net.N() {
					return Result{}, badSensorErr(policy.Name(), id)
				}
				res.EnergyDelivered += net.Sensors[id].Capacity - env.residual[id]
				res.Charges++
				env.residual[id] = net.Sensors[id].Capacity
				dead[id] = false
			}
		}
		res.Schedule.Rounds = append(res.Schedule.Rounds, sched.Round{Time: t, Tours: tours})
		res.Epochs++
	}
	return res, nil
}

// newEnv validates cfg, applies its defaults and builds the initial
// fully-charged world shared by Run and RunDisturbed, carving working
// memory from sc. The predictor is allocated but not seeded: each
// runner decides what the base station initially observes.
func newEnv(net *wsn.Network, model energy.Model, cfg Config, sc *Scratch) (*Env, error) {
	if cfg.T <= 0 {
		return nil, fmt.Errorf("sim: Config.T must be positive, got %g", cfg.T)
	}
	dt := cfg.Dt
	if dt == 0 {
		dt = net.MinCycle()
	}
	if dt <= 0 {
		return nil, fmt.Errorf("sim: Config.Dt must be positive, got %g", dt)
	}
	gamma := cfg.Gamma
	if gamma == 0 {
		gamma = 1
	}
	pred, err := energy.NewEWMA(net.N(), gamma)
	if err != nil {
		return nil, err
	}
	if err := validateOutages(cfg.Outages, net.Q()); err != nil {
		return nil, err
	}
	if cfg.Space != nil && cfg.Space.Len() != net.N()+net.Q() {
		return nil, fmt.Errorf("sim: Config.Space has %d points, network has %d", cfg.Space.Len(), net.N()+net.Q())
	}
	env := &Env{
		Net: net,
		// buildSpace keeps prebuilt spaces as passed (Materialize
		// short-circuits a Dense, grids are used directly) and above
		// metric.DenseLimit swaps the O(n²) matrix for the exact
		// spatial grid — the same selection core.PlanFixed makes.
		Space:    sc.buildSpace(net, cfg),
		Depots:   net.DepotIndices(),
		Model:    model,
		T:        cfg.T,
		Dt:       dt,
		residual: growF64(&sc.residual, net.N()),
		Pred:     pred,
		outages:  cfg.Outages,
		sc:       sc,
	}
	for i, s := range net.Sensors {
		env.residual[i] = s.Capacity
	}
	return env, nil
}

// AllDepotsDownError reports a Config.Outages set that violates the
// documented invariant "at least one depot must remain active at every
// instant": at time T all Q depots are inside an outage window, so no
// charger exists and the scheduling problem is undefined.
type AllDepotsDownError struct {
	// T is an instant at which every depot is down.
	T float64
	// Q is the network's depot count.
	Q int
}

// Error implements the error interface.
func (e *AllDepotsDownError) Error() string {
	return fmt.Sprintf("sim: all %d depots down at t=%g; at least one depot must remain active at every instant", e.Q, e.T)
}

// allDownAt scans the outage windows for an instant at which every one
// of the q depots is inside some window. Coverage counts can only
// change at window starts, so checking each start suffices. It returns
// the first violating start in scan order, or ok=false.
func allDownAt(outages []Outage, q int) (at float64, ok bool) {
	seen := make(map[int]bool)
	for _, o := range outages {
		down := 0
		clear(seen)
		for _, p := range outages {
			if o.From >= p.From && o.From < p.To && !seen[p.Depot] {
				seen[p.Depot] = true
				down++
			}
		}
		if down >= q {
			return o.From, true
		}
	}
	return 0, false
}

// validateOutages rejects malformed windows and configurations that
// would leave the network with no charger at some instant (the latter
// as an *AllDepotsDownError).
//
//lint:allow hotalloc config-time validation: allocates only to reject malformed windows
func validateOutages(outages []Outage, q int) error {
	for i, o := range outages {
		if o.Depot < 0 || o.Depot >= q {
			return fmt.Errorf("sim: outage %d names depot %d, network has %d", i, o.Depot, q)
		}
		if o.To <= o.From {
			return fmt.Errorf("sim: outage %d window [%g, %g) is empty", i, o.From, o.To)
		}
	}
	if at, bad := allDownAt(outages, q); bad {
		return &AllDepotsDownError{T: at, Q: q}
	}
	return nil
}

// consume integrates each sensor's consumption over [a, b), splitting at
// model-slot boundaries so piecewise-constant rates are applied exactly.
func consume(env *Env, a, b float64, dead []bool, res *Result) {
	if b <= a {
		return
	}
	slot := env.Model.SlotLength()
	for cur := a; cur < b-1e-12; {
		next := b
		if !math.IsInf(slot, 1) {
			boundary := (math.Floor(cur/slot+1e-9) + 1) * slot
			if boundary < next {
				next = boundary
			}
		}
		span := next - cur
		for i := range env.residual {
			if dead[i] {
				continue
			}
			env.residual[i] -= env.Model.Rate(i, cur) * span
			// Reaching exactly zero at an instant the charger arrives
			// is fine (the paper's schedules are tight at equality);
			// death means the sensor *needed* energy it did not have.
			if env.residual[i] < -1e-9*env.Net.Sensors[i].Capacity {
				env.residual[i] = 0
				dead[i] = true
				res.Deaths++
				if res.FirstDeath < 0 {
					// The exact zero-crossing is inside (cur, next];
					// report the interval end, good enough for stats.
					res.FirstDeath = next
				}
			} else if env.residual[i] < 0 {
				env.residual[i] = 0
			}
		}
		cur = next
	}
}

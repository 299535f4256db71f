package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/check"
	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/obs"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/wsn"
)

// nearMissFrac is the fraction of τ_i treated as safety margin for
// near-miss accounting: a gap in ((1−nearMissFrac)·τ_i, τ_i] is a near
// miss.
const nearMissFrac = 0.1

// Disturbed configures a disturbed simulation run on top of a Config.
type Disturbed struct {
	// Model is the disturbance realization; nil means disturb.None.
	Model disturb.Model
	// Speed is the charger travel speed (distance per time unit),
	// required positive: under disturbance travel takes real time, and
	// a leg's duration is dist/Speed times the model's travel factor.
	Speed float64
	// Obs, if non-nil, receives robustness counters
	// (robust_gap_violations_total, robust_deaths_total, ...) at the
	// end of the run.
	Obs *obs.Registry
	// Scratch, if non-nil, is the per-run arena to carve working state
	// from; Monte-Carlo harnesses reuse one per worker across
	// replications. nil allocates fresh state (identical results).
	Scratch *Scratch
}

// flight is one charger sortie in the air: a dispatched tour with its
// realized per-stop arrival times. next indexes the first stop not yet
// reached; driven accumulates the distance actually covered.
type flight struct {
	id       int // dispatch order, tie-breaker for simultaneous events
	depotNum int // 0-based depot list index (outage windows use these)
	tour     rooted.Tour
	arrive   []float64
	next     int
	driven   float64
	// at is the space index of the charger's current vertex, for the
	// return leg when the sortie is interrupted.
	at int
}

// report is a telemetry observation in flight to the base station.
type report struct {
	issue  int // epoch the report was issued
	sensor int
	value  float64
}

// RunDisturbed simulates policy over net like Run, but inside the
// stochastic world d.Model describes: tour legs take disturbed travel
// time (sensors are charged at realized arrival instants, not at
// dispatch), chargers break down mid-sortie (stranding the remaining
// stops, which are re-queued to the policy via Env.Requeued), true
// consumption is the energy model times the model's rate factor, and
// telemetry reaches the EWMA predictor late or never. Gap violations
// and near misses are accounted against the network's nominal maximum
// charging cycles.
//
// The run is event-driven: pending arrivals live in a binary heap
// merged with the breakdown-start stream, residual energy integrates
// lazily (residEngine), and Redispatch inspects only sensors whose
// pressure horizon has expired — total work is O(events·log +
// n·rate-slots), not O(events·n). RunDisturbedReference retains the
// time-stepped scanning structure; the two are bit-identical (see the
// equivalence suite in equiv_test.go and DESIGN.md §17).
//
// Determinism: for a fixed (net, model, policy, cfg, d) the run is a
// pure function — the disturbance realization is seeded, events are
// processed in (time, kind, dispatch-order) order, and no wall clock is
// consulted — so repeated runs are bit-identical.
func RunDisturbed(net *wsn.Network, model energy.Model, policy Policy, cfg Config, d Disturbed) (Result, error) {
	return runDisturbed(net, model, policy, cfg, d, false)
}

// RunDisturbedReference is the retained reference implementation of
// RunDisturbed: per-event linear scans over in-flight sorties and
// full-network policy inspection, the PR 9 control flow. It exists to
// pin the event-driven runner — both must produce bit-identical
// results for any input — and for that purpose only; it is O(events·n)
// and unfit for large networks.
func RunDisturbedReference(net *wsn.Network, model energy.Model, policy Policy, cfg Config, d Disturbed) (Result, error) {
	return runDisturbed(net, model, policy, cfg, d, true)
}

func runDisturbed(net *wsn.Network, model energy.Model, policy Policy, cfg Config, d Disturbed, ref bool) (Result, error) {
	dm := d.Model
	if dm == nil {
		dm = disturb.None
	}
	if d.Speed <= 0 || math.IsInf(d.Speed, 0) || math.IsNaN(d.Speed) {
		return Result{}, fmt.Errorf("sim: Disturbed.Speed must be positive and finite, got %g", d.Speed)
	}
	sc := d.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	sc.resetRun()
	env, err := newEnv(net, model, cfg, sc)
	if err != nil {
		return Result{}, err
	}
	dt := env.Dt
	pred := env.Pred
	n := net.N()

	res := Result{
		Schedule:   &sched.Schedule{T: cfg.T},
		FirstDeath: -1,
	}
	env.eng = newResidEngine(env, dm, sc, &res)
	env.lazyInspect = !ref

	// The base station starts with the deployment-time ground truth.
	rates := growF64(&sc.rates, n)
	disturb.RateFactors(dm, rates, 0)
	for i := range net.Sensors {
		pred.Observe(i, model.Rate(i, 0)*rates[i])
	}

	// Fold the model's breakdown windows into the user's outages,
	// deterministically dropping any generated window that would leave
	// all depots down at once (the problem is undefined without any
	// charger; user-supplied windows were already strictly validated).
	windowsDropped := 0
	env.outages, windowsDropped = mergeWindows(cfg.Outages, dm.Windows(net.Q(), cfg.T), net.Q())
	breakStarts := breakdownStarts(env.outages, cfg.T)

	if err := policy.Init(env); err != nil {
		return Result{}, fmt.Errorf("sim: policy %s init: %w", policy.Name(), err)
	}

	cycles := net.Cycles()
	lastCharge := growF64(&sc.lastCharge, n)
	for i := range lastCharge {
		lastCharge[i] = 0
	}
	var flights []*flight // reference mode's scan list
	var es *eventState    // event mode's queues
	if ref {
		flights = sc.flights[:0]
	} else {
		es = newEventState(sc, net.Q())
	}
	pending := sc.resetPending()
	activeB := growBool(&sc.activeB, env.Space.Len())
	for i := range activeB {
		activeB[i] = false
	}
	dispatched := 0
	const eps = 1e-9

	// closeGap accounts one charge gap for sensor i ending at t.
	closeGap := func(i int, t float64) {
		gap := t - lastCharge[i]
		ratio := gap / cycles[i]
		if ratio > res.MaxGapRatio {
			res.MaxGapRatio = ratio
		}
		if gap > cycles[i]*(1+eps) {
			res.GapViolations++
		} else if gap > cycles[i]*(1-nearMissFrac) {
			res.NearMisses++
		}
		lastCharge[i] = t
	}

	for step := 1; ; step++ {
		t := float64(step) * dt
		last := t >= cfg.T-eps
		from := float64(step-1) * dt
		to := t
		if last {
			to = cfg.T
		}
		// Advance the world over [from, to): charger arrivals and
		// breakdown interruptions in event order. Consumption needs no
		// advancing — the residual engine integrates lazily.
		if ref {
			flights = sweepRef(env, flights, breakStarts, from, to, &res, closeGap)
		} else {
			es.sweep(env, breakStarts, from, to, &res, closeGap)
		}
		if last {
			break
		}
		env.now = t

		// Telemetry: deliver overdue reports first (stale values, in
		// issue order), then this epoch's observations.
		deliverDue(pred, pending, step, sc)
		disturb.RateFactors(dm, rates, t)
		for i := range net.Sensors {
			v := model.Rate(i, t) * rates[i]
			switch delay := dm.ObsDelay(i, step); {
			case delay == disturb.Lost:
				res.TelemetryLost++
			case delay == 0:
				pred.Observe(i, v)
			default:
				res.TelemetryLate++
				pending[step+delay] = append(pending[step+delay], report{issue: step, sensor: i, value: v})
			}
		}

		tours, err := policy.Decide(env, t)
		if err != nil {
			return Result{}, policyErr(policy.Name(), t, err)
		}
		env.requeued = env.requeued[:0]
		res.Epochs++
		if len(tours) == 0 {
			continue
		}
		acts := env.ActiveDepots()
		for _, a := range acts {
			activeB[a] = true
		}
		var kept []rooted.Tour
		for _, tour := range tours {
			if len(tour.Stops) == 0 {
				continue
			}
			if check.Enabled {
				if err := check.Tour(env.Space.Len(), tour.Depot, tour.Stops); err != nil {
					return Result{}, policyErr(policy.Name(), t, err)
				}
			}
			for _, id := range tour.Stops {
				if id < 0 || id >= n {
					return Result{}, badSensorErr(policy.Name(), id)
				}
			}
			if !activeB[tour.Depot] {
				// A breakdown the policy did not react to: the sortie
				// never leaves. Its sensors are stranded.
				res.DroppedTours++
				res.Requeued += len(tour.Stops)
				env.requeued = append(env.requeued, tour.Stops...)
				continue
			}
			fl := launch(env, dm, tour, step, dispatched, t, d.Speed)
			if check.Enabled {
				if err := check.Arrivals(t, fl.arrive); err != nil {
					return Result{}, arrivalsErr(t, err)
				}
			}
			dispatched++
			if ref {
				flights = append(flights, fl)
			} else {
				es.add(fl)
			}
			kept = append(kept, tour)
		}
		for _, a := range acts {
			activeB[a] = false
		}
		if len(kept) > 0 {
			res.Schedule.Rounds = append(res.Schedule.Rounds, sched.Round{Time: t, Tours: kept})
		}
	}

	// Sorties still in the air at T drive home; stops not reached by T
	// are not charged.
	if ref {
		for _, fl := range flights {
			abortFlight(env, fl, &res)
		}
		sc.flights = flights[:0]
	} else {
		for _, fl := range es.all {
			abortFlight(env, fl, &res)
		}
	}
	// Materialize every sensor's terminal residual: deaths hiding in
	// yet-uncommitted segments are recorded here.
	env.eng.finalize(cfg.T)
	// Terminal gaps: every sensor must also survive from its last
	// charge to the end of the monitoring period.
	for i := range net.Sensors {
		closeGap(i, cfg.T)
	}
	if d.Obs != nil {
		reg := d.Obs
		add := func(name, help string, v int) {
			reg.Counter(name, help).Add(int64(v))
		}
		add("robust_gap_violations_total", "Charge gaps exceeding the nominal cycle.", res.GapViolations)
		add("robust_near_misses_total", "Charge gaps inside the near-miss margin.", res.NearMisses)
		add("robust_requeued_total", "Sensors stranded and re-queued.", res.Requeued)
		add("robust_interrupted_sorties_total", "Sorties cut short by breakdowns.", res.InterruptedSorties)
		add("robust_dropped_tours_total", "Dispatches dropped at a down depot.", res.DroppedTours)
		add("robust_telemetry_lost_total", "Sensor reports lost before the BS.", res.TelemetryLost)
		add("robust_telemetry_late_total", "Sensor reports delivered late.", res.TelemetryLate)
		add("robust_deaths_total", "Sensor deaths under disturbance.", res.Deaths)
		add("robust_windows_dropped_total", "Generated breakdown windows dropped to keep one depot alive.", windowsDropped)
	}
	return res, nil
}

// policyErr and badSensorErr keep error construction out of the epoch
// loop's instruction stream (they only run on a failing policy).
func policyErr(name string, t float64, err error) error {
	return fmt.Errorf("sim: policy %s at t=%g: %w", name, t, err)
}

func badSensorErr(name string, id int) error {
	return fmt.Errorf("sim: policy %s charged invalid sensor index %d", name, id)
}

func arrivalsErr(t float64, err error) error {
	return fmt.Errorf("sim: at t=%g: %w", t, err)
}

func outageDispatchErr(name string, depot int, t float64) error {
	return fmt.Errorf("sim: policy %s dispatched a tour from depot %d during its outage at t=%g", name, depot, t)
}

// launch realizes tour's arrival times under the travel-noise model:
// leg k's duration is its nominal distance over speed, times the
// model's factor for (epoch, tour-of-epoch, leg).
func launch(env *Env, dm disturb.Model, tour rooted.Tour, epoch, id int, t, speed float64) *flight {
	arrive := env.sc.arrive(len(tour.Stops))
	cur := tour.Depot
	now := t
	for k, s := range tour.Stops {
		legT := env.Space.Dist(cur, s) / speed * dm.TravelFactor(epoch, id, k)
		now += legT
		arrive[k] = now
		cur = s
	}
	fl := env.sc.newFlight()
	*fl = flight{id: id, depotNum: depotNumOf(env, tour.Depot), tour: tour, arrive: arrive, at: tour.Depot}
	return fl
}

// depotNumOf maps a depot's space index to its 0-based depot-list
// index; -1 if idx is not a depot (impossible for checked tours).
func depotNumOf(env *Env, idx int) int {
	for l, d := range env.Depots {
		if d == idx {
			return l
		}
	}
	return -1
}

// serveStop executes flight fl's next arrival at time when: the charger
// advances to the stop, the sensor's gap closes, the residual engine
// recharges it to capacity, and a completed sortie prices its return
// leg. Shared verbatim by the reference and event sweeps.
func serveStop(env *Env, fl *flight, when float64, res *Result, closeGap func(int, float64)) {
	s := fl.tour.Stops[fl.next]
	fl.driven += env.Space.Dist(fl.at, s)
	fl.at = s
	closeGap(s, when)
	res.EnergyDelivered += env.eng.charge(s, when)
	res.Charges++
	fl.next++
	if fl.next == len(fl.tour.Stops) {
		// Sortie complete: drive the return leg home.
		fl.driven += env.Space.Dist(fl.at, fl.tour.Depot)
		res.DrivenCost += fl.driven
		fl.driven = 0
	}
}

// interruptFlight strands flight fl at a breakdown of its depot: the
// unreached stops are re-queued to the policy and the sortie aborted.
func interruptFlight(env *Env, fl *flight, res *Result) {
	res.InterruptedSorties++
	stranded := fl.tour.Stops[fl.next:]
	res.Requeued += len(stranded)
	env.requeued = append(env.requeued, stranded...)
	abortFlight(env, fl, res)
	fl.next = len(fl.tour.Stops)
}

// sweepRef advances the world over [from, to) with the reference
// event-selection strategy: a linear scan over every in-flight sortie
// per event, exactly the PR 9 control flow. Events are processed in
// (time, kind, dispatch-order) order so the realization is independent
// of slice layout. It returns the surviving in-flight sorties.
func sweepRef(env *Env, flights []*flight, breaks []Outage, from, to float64, res *Result, closeGap func(int, float64)) []*flight {
	cur := from
	bi := 0
	for bi < len(breaks) && breaks[bi].From < cur {
		bi++
	}
	for {
		// Next event: the earliest flight arrival or breakdown start
		// in [cur, to). Arrivals win ties so a sensor charged at the
		// exact instant of a breakdown is charged (the charger was
		// already there); among arrivals, dispatch order breaks ties.
		const (
			kindNone = iota
			kindArrive
			kindBreak
		)
		kind := kindNone
		when := to
		sel := -1
		for fi, fl := range flights {
			if fl.next >= len(fl.tour.Stops) {
				continue
			}
			at := fl.arrive[fl.next]
			if at < when || (at == when && kind == kindBreak) || //lint:allow floateq exact event-time tie ordering
				(at == when && kind == kindArrive && fl.id < flights[sel].id) { //lint:allow floateq exact event-time tie ordering
				when, kind, sel = at, kindArrive, fi
			}
		}
		if bi < len(breaks) && breaks[bi].From < when && breaks[bi].From < to {
			when, kind, sel = breaks[bi].From, kindBreak, bi
		}
		if kind == kindNone {
			return compactFlights(flights)
		}
		cur = when
		_ = cur
		switch kind {
		case kindArrive:
			serveStop(env, flights[sel], when, res, closeGap)
		case kindBreak:
			w := breaks[sel]
			bi++
			for _, fl := range flights {
				if fl.depotNum != w.Depot || fl.next >= len(fl.tour.Stops) {
					continue
				}
				interruptFlight(env, fl, res)
			}
		}
	}
}

// abortFlight prices an interrupted (or end-of-horizon) sortie: the
// distance driven so far plus the return leg to its depot.
func abortFlight(env *Env, fl *flight, res *Result) {
	if fl.next >= len(fl.tour.Stops) && fl.driven == 0 {
		return // already completed and priced
	}
	res.DrivenCost += fl.driven + env.Space.Dist(fl.at, fl.tour.Depot)
	fl.driven = 0
}

// compactFlights drops completed sorties.
func compactFlights(flights []*flight) []*flight {
	out := flights[:0]
	for _, fl := range flights {
		if fl.next < len(fl.tour.Stops) {
			out = append(out, fl)
		}
	}
	return out
}

// mergeWindows folds generated breakdown windows into the user's outage
// set, dropping (in sorted order, deterministically) every generated
// window whose addition would leave all q depots down at some instant.
// It returns the merged set and the number of windows dropped.
func mergeWindows(user []Outage, gen []disturb.Window, q int) ([]Outage, int) {
	merged := append([]Outage(nil), user...)
	cand := make([]Outage, 0, len(gen))
	for _, w := range gen {
		cand = append(cand, Outage{Depot: w.Depot, From: w.From, To: w.To})
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].From != cand[j].From { //lint:allow floateq exact sort tie-break
			return cand[i].From < cand[j].From
		}
		if cand[i].To != cand[j].To { //lint:allow floateq exact sort tie-break
			return cand[i].To < cand[j].To
		}
		return cand[i].Depot < cand[j].Depot
	})
	dropped := 0
	for _, c := range cand {
		trial := append(merged, c)
		if _, bad := allDownAt(trial, q); bad {
			dropped++
			continue
		}
		merged = trial
	}
	return merged, dropped
}

// breakdownStarts returns the merged outage windows sorted by start
// time (ties by depot) and clipped to [0, T) — the interruption events
// the sweep consumes in order.
func breakdownStarts(outages []Outage, T float64) []Outage {
	out := make([]Outage, 0, len(outages))
	for _, o := range outages {
		if o.From < T {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From { //lint:allow floateq exact sort tie-break
			return out[i].From < out[j].From
		}
		return out[i].Depot < out[j].Depot
	})
	return out
}

// deliverDue feeds every pending telemetry report due at or before
// epoch into the predictor, oldest issue first (ties by sensor), so the
// EWMA sees stale values in their original order.
func deliverDue(pred *energy.EWMA, pending map[int][]report, epoch int, sc *Scratch) {
	due := sc.due[:0]
	for e, rs := range pending {
		if e <= epoch {
			due = append(due, rs...)
			delete(pending, e)
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if due[i].issue != due[j].issue {
			return due[i].issue < due[j].issue
		}
		return due[i].sensor < due[j].sensor
	})
	for _, r := range due {
		pred.Observe(r.sensor, r.value)
	}
	sc.due = due[:0]
}

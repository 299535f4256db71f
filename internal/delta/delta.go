// Package delta patches a held MinTotalDistance plan under topology
// churn instead of replanning it from scratch — the perf core of
// chargerd's streaming session API (internal/serve).
//
// A State owns one tenant's live deployment and its current plan: the
// K+1 prefix-class tour solutions D_0..D_K of core.PlanFixed, indexed
// so that single-sensor changes are local operations.
//
//   - A join classifies the new sensor (core.ClassIndex), finds the
//     geometrically nearest planned sensor of each prefix solution it
//     belongs to via grid k-NN (metric.GridIndex.NearestTo), splices it
//     into that sensor's tour at the cheapest insertion position, and
//     polishes the touched tour with the tour-local candidate-list
//     sweeps (tsp.RefineTourGrid).
//   - A leave shortcuts the sensor out of every tour that visits it.
//   - A rate update re-classes the sensor and inserts it into (or
//     removes it from) exactly the prefix solutions between its old and
//     new class — the same "assign to the nearest feasible round" move
//     core.Var's residual-lifetime patching performs.
//
// Every patched schedule stays feasible by construction: a sensor of
// class c is visited by every round j with base^c | j, i.e. every
// base^c·τ_1 <= τ time units (Lemma 2 of the paper); class membership
// is only ever chosen so that bound holds. Changes that patching cannot
// absorb — a cycle below the base period τ_1, which would require a new
// round grid — trigger a structural full replan inline.
//
// Patches are exact-cost accounted: every touched tour's cost is
// recomputed from scratch after the batch (no incremental float
// accumulation), and the absolute cost movement, weighted by how many
// rounds replay each solution, accrues into a drift ratio against the
// last full plan's cost. When the ratio crosses Config.MaxDrift the
// caller is told to reconcile (Result.NeedReplan); the serving layer
// then full-replans a Snapshot in the background, replays the ops that
// arrived meanwhile from its ring buffer, and atomically swaps the
// fresh State in — so patched plans never degrade unboundedly.
//
// Determinism: a State's evolution is a pure function of its inputs and
// the op sequence. Full plans and replans inherit byte-for-byte
// Workers-independence from core.PlanFixed; patches are serial and
// tie-broken deterministically (nearest-neighbor ties to the smallest
// slot, insertion-position ties to the earliest edge).
// TestDeltaPatchDeterminism pins serial vs Workers=8 equality on the
// encoded plan.
package delta

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/tsp"
	"repro/internal/wsn"
)

// patchRefineRounds bounds the tour-local 2-opt/Or-opt sweeps after an
// insertion. Two rounds recover almost all of the splice's slack at a
// cost linear in the touched tour; full convergence belongs to the
// reconciling replan.
const patchRefineRounds = 2

// patchRefineMax caps the tour size eligible for the whole-tour
// candidate-list sweep after an insertion. Beyond it a patch must stay
// strictly local — sweeping a 25k-stop tour on every join would cost
// more than the full replan the patch exists to avoid — so big tours
// get a bounded 2-opt window around the insertion point instead.
const patchRefineMax = 512

// patchWindow is the half-width, in stops, of that insertion-local
// 2-opt window on tours larger than patchRefineMax.
const patchWindow = 16

// Config fixes a session's planning parameters at creation.
type Config struct {
	// Method selects the tour construction for full plans and replans
	// (the zero value is the paper's Algorithm 2 double-tree).
	Method rooted.Method
	// Refine applies local search to full-plan tours. Patched tours are
	// always polished locally regardless, so splices never depend on it.
	Refine bool
	// T is the monitoring period; required > 0.
	T float64
	// Base is the cycle-rounding base; 0 means the paper's 2. Patching
	// relies on the divisibility round structure, so the base must be an
	// integer >= 2 (non-integer bases dispatch every round on D_0,
	// which cannot serve classes above 0).
	Base float64
	// Workers is the intra-plan parallelism of full plans and replans
	// (rooted.Options.Workers); byte-identical to serial by contract.
	Workers int
	// MaxDrift is the cost-drift ratio that requests reconciliation;
	// 0 means 0.02 (2% of the last full plan's schedule cost).
	MaxDrift float64
	// MaxRounds, when positive, bounds T/τ_1: batches (or initial
	// plans) that would require more dispatch rounds are rejected.
	MaxRounds int
}

func (c Config) base() float64 {
	if c.Base == 0 { //lint:allow floateq zero value means default, exact test intended
		return 2
	}
	return c.Base
}

func (c Config) maxDrift() float64 {
	if c.MaxDrift == 0 { //lint:allow floateq zero value means default, exact test intended
		return 0.02
	}
	return c.MaxDrift
}

// OpKind discriminates delta operations.
type OpKind uint8

// The delta operations a session accepts.
const (
	// OpJoin adds a sensor at (X, Y) with the given Cycle and Capacity
	// (0 means 1). The sensor is assigned the next free slot id.
	OpJoin OpKind = iota + 1
	// OpLeave removes the live sensor with slot id ID.
	OpLeave
	// OpRate changes the maximum charging cycle of sensor ID to Cycle.
	OpRate
)

func (k OpKind) String() string {
	switch k {
	case OpJoin:
		return "join"
	case OpLeave:
		return "leave"
	case OpRate:
		return "rate"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one delta operation. See the OpKind constants for which fields
// each kind reads.
type Op struct {
	Kind     OpKind
	ID       int
	X, Y     float64
	Capacity float64
	Cycle    float64
}

// Result reports what one Apply did.
type Result struct {
	// Joined holds the slot ids assigned to the batch's join ops, in op
	// order. Slot ids are stable for the life of the session and are
	// never reused.
	Joined []int
	// Cost is the schedule cost after the batch.
	Cost float64
	// Drift is the accumulated cost-drift ratio against the last full
	// plan (0 right after a replan).
	Drift float64
	// NeedReplan reports the drift ratio crossed Config.MaxDrift; the
	// caller should reconcile with a background replan.
	NeedReplan bool
	// Replanned reports a structural full replan ran inline (a cycle
	// arrived below the base period τ_1).
	Replanned bool
}

// tour is one charger's patched tour: stops are slot ids, depot is the
// 0-based depot number, cost is the exact tour length (recomputed from
// scratch whenever the stop sequence changes).
type tour struct {
	depot int
	stops []int
	cost  float64
}

// solution is one patched prefix solution D_k: q tours indexed by depot
// number, plus the per-slot tour membership index (-1 when the slot is
// not covered by this solution).
type solution struct {
	tours  []tour
	tourOf []int32
	cost   float64
	// touched is transient Apply scratch: set while settling a batch's
	// dirty tours, cleared before Apply returns.
	touched bool
}

// State is one session's live deployment and patched plan. Methods are
// not safe for concurrent use: the serving layer serializes all access
// through the session's shard.
type State struct {
	cfg  Config
	base float64

	field  geom.Rect
	bs     geom.Point
	depots []geom.Point

	// sensors is the slot array: index = slot id = wsn.Sensor.ID. Slots
	// are append-only; departed sensors leave holes (alive[i] false)
	// so every id a client ever saw keeps meaning the same sensor.
	sensors []wsn.Sensor
	alive   []bool
	nAlive  int

	// pts backs grid: sensor slots (dead ones included, masked by the
	// query predicates) followed by the depots, so depot l sits at
	// metric index len(sensors)+l and RefineTourGrid can address both.
	pts  []geom.Point
	grid *metric.Grid

	fp *wsn.FingerprintAccum

	tau1     float64
	k        int
	class    []int32 // per slot; -1 when dead
	sols     []solution
	roundsOf []int // rounds replaying D_k in (0, T)

	baseCost float64 // schedule cost at the last full plan
	driftAbs float64 // round-weighted |Δcost| accrued by patches since
	version  int64
	replans  int
	patched  int64 // ops absorbed as patches

	sc    *tsp.Scratch
	dirty dirtySet
}

// New builds a session State over net and computes its initial full
// plan. The scratch arena may be nil (a private one is allocated) and
// must not be shared with concurrent callers.
func New(net *wsn.Network, cfg Config, sc *tsp.Scratch) (*State, error) {
	if !(cfg.T > 0) || math.IsInf(cfg.T, 0) {
		return nil, fmt.Errorf("delta: monitoring period must be positive and finite, got %g", cfg.T)
	}
	b := cfg.base()
	if b != math.Floor(b) || b < 2 { //lint:allow floateq integrality test on the rounding base, by design
		return nil, fmt.Errorf("delta: rounding base must be an integer >= 2 for patching, got %g", b)
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("delta: %w", err)
	}
	if sc == nil {
		sc = tsp.NewScratch()
	}
	st := &State{
		cfg:     cfg,
		base:    b,
		field:   net.Field,
		bs:      net.Base,
		depots:  append([]geom.Point(nil), net.Depots...),
		sensors: append([]wsn.Sensor(nil), net.Sensors...),
		alive:   make([]bool, net.N()),
		class:   make([]int32, net.N()),
		nAlive:  net.N(),
		fp:      wsn.NewFingerprintAccum(net),
		sc:      sc,
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	if err := st.planLive(); err != nil {
		return nil, err
	}
	st.version = 1
	return st, nil
}

// Cfg returns the session's planning configuration.
func (st *State) Cfg() Config { return st.cfg }

// N returns the number of live sensors.
func (st *State) N() int { return st.nAlive }

// Q returns the depot count.
func (st *State) Q() int { return len(st.depots) }

// K returns the index of the last cycle class of the current plan.
func (st *State) K() int { return st.k }

// Tau1 returns the current base period τ_1.
func (st *State) Tau1() float64 { return st.tau1 }

// Version counts applied batches (and the initial plan); it increases
// by exactly one per successful Apply.
func (st *State) Version() int64 { return st.version }

// Replans counts full replans (structural and reconciling) since New.
func (st *State) Replans() int { return st.replans }

// PatchedOps counts ops absorbed as patches (not replans).
func (st *State) PatchedOps() int64 { return st.patched }

// Cost returns the current schedule cost: sum over dispatch rounds of
// the replayed solution's cost.
func (st *State) Cost() float64 {
	var c float64
	for k, r := range st.roundsOf {
		c += float64(r) * st.sols[k].cost
	}
	return c
}

// Drift returns the accumulated cost-drift ratio since the last full
// plan.
func (st *State) Drift() float64 {
	if st.baseCost > 0 {
		return st.driftAbs / st.baseCost
	}
	if st.driftAbs > 0 {
		return math.Inf(1)
	}
	return 0
}

// Fingerprint returns the order-independent wsn.Fingerprint of the live
// deployment, maintained incrementally across deltas.
func (st *State) Fingerprint() uint64 { return st.fp.Hash() }

// liveCompact returns the live sensors renumbered 0..m-1 plus the map
// from compact index back to slot id, in ascending slot order.
func (st *State) liveCompact() ([]wsn.Sensor, []int) {
	out := make([]wsn.Sensor, 0, st.nAlive)
	comp := make([]int, 0, st.nAlive)
	for slot, ok := range st.alive {
		if !ok {
			continue
		}
		s := st.sensors[slot]
		s.ID = len(out)
		out = append(out, s)
		comp = append(comp, slot)
	}
	return out, comp
}

// planLive computes a full plan of the live deployment and installs it,
// resetting the drift accounting. It is the shared core of New, the
// structural replan path, and Replan.
//
//lint:allow hotalloc rebuild-rate allocation (once per structural replan), not per-sensor
func (st *State) planLive() error {
	live, comp := st.liveCompact()
	if len(live) == 0 {
		return fmt.Errorf("delta: cannot plan a session with no live sensors")
	}
	cnet := &wsn.Network{Field: st.field, Base: st.bs, Sensors: live, Depots: st.depots}
	if st.cfg.MaxRounds > 0 {
		if rounds := st.cfg.T / cnet.MinCycle(); rounds > float64(st.cfg.MaxRounds) {
			return fmt.Errorf("delta: t/min-cycle = %g exceeds the %d-round cap", rounds, st.cfg.MaxRounds)
		}
	}
	ppts := cnet.Points()
	opt := core.FixedOptions{
		Base:  st.cfg.Base,
		Space: metric.NewGrid(ppts),
		Rooted: rooted.Options{
			Method:  st.cfg.Method,
			Refine:  st.cfg.Refine,
			Workers: st.cfg.Workers,
			Scratch: st.sc,
		},
	}
	plan, err := core.PlanFixed(cnet, st.cfg.T, opt)
	if err != nil {
		return fmt.Errorf("delta: %w", err)
	}

	st.tau1, st.k = plan.Tau1, plan.K
	st.class = growFillInt32(st.class[:0], len(st.sensors), -1)
	for k, ids := range plan.Classes {
		for _, i := range ids {
			st.class[comp[i]] = int32(k)
		}
	}

	m := len(live)
	st.sols = make([]solution, st.k+1)
	for k := range st.sols {
		sol := solution{
			tours:  make([]tour, st.Q()),
			tourOf: make([]int32, len(st.sensors)),
		}
		for i := range sol.tourOf {
			sol.tourOf[i] = -1
		}
		for l := range sol.tours {
			sol.tours[l].depot = l
		}
		for _, t := range plan.RoundSolutions[k].Tours {
			l := t.Depot - m
			stops := make([]int, len(t.Stops))
			for i, s := range t.Stops {
				stops[i] = comp[s]
				sol.tourOf[comp[s]] = int32(l)
			}
			sol.tours[l] = tour{depot: l, stops: stops, cost: t.Cost}
			sol.cost += t.Cost
		}
		st.sols[k] = sol
	}

	st.roundsOf = make([]int, st.k+1)
	for j := 1; ; j++ {
		if float64(j)*st.tau1 >= st.cfg.T-1e-9 {
			break
		}
		st.roundsOf[core.RoundOrder(j, st.base, st.k)]++
	}

	st.baseCost = st.Cost()
	st.driftAbs = 0
	st.dirty.reset(st.k+1, st.Q())
	st.rebuildGrid()

	if check.Enabled {
		if err := st.Verify(); err != nil {
			panic("delta: planLive postcondition: " + err.Error())
		}
	}
	return nil
}

// rebuildGrid refills the session grid over the slot points (holes
// included) followed by the depots.
func (st *State) rebuildGrid() {
	st.pts = st.pts[:0]
	for i := range st.sensors {
		st.pts = append(st.pts, st.sensors[i].Pos)
	}
	st.pts = append(st.pts, st.depots...)
	if st.grid == nil {
		st.grid = metric.NewGrid(st.pts)
	} else {
		st.grid.Rebuild(st.pts)
	}
}

// Replan recomputes the full plan of the live deployment in place,
// discarding the accumulated patches' drift. The serving layer calls it
// for synchronous reconciliation; asynchronous reconciliation goes
// through Snapshot/PlanSnapshot instead.
func (st *State) Replan() error {
	if err := st.planLive(); err != nil {
		return err
	}
	st.replans++
	return nil
}

// Snapshot is a deep copy of a State's deployment (not its plan), the
// input of an asynchronous reconciling replan. The slot array is copied
// hole-for-hole so slot ids keep their meaning in the replanned State.
type Snapshot struct {
	cfg     Config
	field   geom.Rect
	bs      geom.Point
	depots  []geom.Point
	sensors []wsn.Sensor
	alive   []bool
	version int64
	replans int
	patched int64
}

// Snapshot deep-copies the live deployment for a background replan.
func (st *State) Snapshot() *Snapshot {
	return &Snapshot{
		cfg:     st.cfg,
		field:   st.field,
		bs:      st.bs,
		depots:  append([]geom.Point(nil), st.depots...),
		sensors: append([]wsn.Sensor(nil), st.sensors...),
		alive:   append([]bool(nil), st.alive...),
		version: st.version,
		replans: st.replans,
		patched: st.patched,
	}
}

// PlanSnapshot full-plans a snapshot into a fresh State. The new State
// carries the snapshot's version (replaying the ops logged since the
// snapshot advances it exactly as the live State advanced) and one more
// replan. sc may be nil; background callers pass their own arena.
func PlanSnapshot(snap *Snapshot, sc *tsp.Scratch) (*State, error) {
	if sc == nil {
		sc = tsp.NewScratch()
	}
	st := &State{
		cfg:     snap.cfg,
		base:    snap.cfg.base(),
		field:   snap.field,
		bs:      snap.bs,
		depots:  snap.depots,
		sensors: snap.sensors,
		alive:   snap.alive,
		version: snap.version,
		replans: snap.replans + 1,
		patched: snap.patched,
		sc:      sc,
	}
	for _, ok := range st.alive {
		if ok {
			st.nAlive++
		}
	}
	live, _ := st.liveCompact()
	st.fp = wsn.NewFingerprintAccum(&wsn.Network{
		Field: st.field, Base: st.bs, Sensors: live, Depots: st.depots,
	})
	if err := st.planLive(); err != nil {
		return nil, err
	}
	return st, nil
}

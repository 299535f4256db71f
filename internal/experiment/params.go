// Package experiment defines the paper's simulation study (Section VII)
// as reproducible, parallelizable parameter sweeps: every figure of the
// evaluation is a Sweep over one parameter, each point averaged over many
// independent random topologies, with both the proposed algorithm and the
// greedy baseline run on identical topologies for a paired comparison.
//
// Determinism: the random stream of every (figure, sweep point, topology)
// cell is derived from the master seed by pure label hashing, so results
// are independent of worker count and execution order.
package experiment

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/tsp"
	"repro/internal/wsn"
)

// Algorithm labels understood by RunOne.
const (
	AlgoMTD           = "MinTotalDistance"
	AlgoMTDRefined    = "MinTotalDistance-2opt"         // ablation: 2-opt/Or-opt refined tours
	AlgoMTDVoronoi    = "MinTotalDistance-voronoi"      // ablation: cluster-first/route-second tours
	AlgoMTDChristo    = "MinTotalDistance-christofides" // ablation: matching-based tour construction
	AlgoMTDVar        = "MinTotalDistance-var"
	AlgoMTDVarNoGuard = "MinTotalDistance-var-noguard" // ablation: paper-literal trigger, no lifetime guard
	AlgoGreedy        = "Greedy"
	AlgoChargeAll     = "ChargeAll" // naive baseline: everyone every τ_min

	// Single-round q-rooted TSP evaluations (the approximation-ratio
	// ablation): cost is one round over all sensors, not a schedule.
	AlgoQRootedApprox  = "QRootedTSP-2approx"
	AlgoQRootedRefined = "QRootedTSP-refined"
	AlgoQRootedExact   = "QRootedTSP-exact"
)

// TourConstruction sets on opt the tour construction that the algorithm
// label algo names: AlgoMTDRefined and AlgoQRootedRefined refine the
// double-tree tours, AlgoMTDVoronoi routes cluster-first and
// AlgoMTDChristo builds Christofides tours. Any other label leaves opt
// as it is. The sweep and chargerd's plans and sessions all take the
// mapping from here.
func TourConstruction(algo string, opt *rooted.Options) {
	switch algo {
	case AlgoMTDRefined, AlgoQRootedRefined:
		opt.Refine = true
	case AlgoMTDVoronoi:
		opt.Method = rooted.MethodClusterFirst
	case AlgoMTDChristo:
		opt.Method = rooted.MethodChristofides
	}
}

// Params fully determines one simulation cell.
type Params struct {
	// Topology.
	N, Q           int
	TauMin, TauMax float64
	Sigma          float64 // linear-distribution variance
	DistName       string  // "linear" or "random"
	DepotPlacement wsn.DepotPlacement
	// Clusters > 0 switches to a clustered deployment with that many
	// Gaussian clusters of standard deviation Spread.
	Clusters int
	Spread   float64

	// Regime.
	T        float64 // monitoring period
	Dt       float64 // decision granularity (τ_min in the paper)
	Variable bool    // variable maximum charging cycles (Section VI)
	SlotDT   float64 // ΔT, cycle-constancy slot length (variable only)
	Gamma    float64 // EWMA factor; 0 = 1 (exact per-slot observation)
	// UpdateThreshold gates sensor cycle reports to the base station
	// (MinTotalDistance-var only); 0 reports every change.
	UpdateThreshold float64

	// Algorithm knobs.
	Rooted rooted.Options
	Base   float64 // cycle-rounding base for PlanFixed; 0 = 2

	// Randomness.
	Seed uint64 // cell seed (already label-mixed by the sweep)
}

// Dist materializes the configured charging-cycle distribution.
func (p Params) Dist() (wsn.CycleDist, error) {
	switch p.DistName {
	case "linear":
		return wsn.LinearDist{TauMin: p.TauMin, TauMax: p.TauMax, Sigma: p.Sigma}, nil
	case "random":
		return wsn.RandomDist{TauMin: p.TauMin, TauMax: p.TauMax}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown distribution %q", p.DistName)
	}
}

// Network generates the cell's topology.
func (p Params) Network() (*wsn.Network, error) {
	dist, err := p.Dist()
	if err != nil {
		return nil, err
	}
	r := rng.New(p.Seed).Split(0x70)
	if p.Clusters > 0 {
		return wsn.GenerateClustered(r, wsn.ClusteredConfig{
			N: p.N, Q: p.Q, Clusters: p.Clusters, Spread: p.Spread,
			Dist: dist, DepotPlacement: p.DepotPlacement,
		})
	}
	return wsn.Generate(r, wsn.GenConfig{
		N: p.N, Q: p.Q, Dist: dist, DepotPlacement: p.DepotPlacement,
	})
}

// Outcome is the result of one algorithm on one cell.
type Outcome struct {
	Cost       float64
	Deaths     int
	Dispatches int
	Replans    int // MinTotalDistance-var only
	// LowerBound is the certified optimum lower bound (PlanFixed only).
	LowerBound float64
	// Millis is the wall-clock time the algorithm took on this cell.
	// Unlike every other field it is not deterministic; the
	// scalability ablation averages it over topologies.
	Millis float64
	// PlanMillis is the share of Millis spent planning (tour
	// construction and re-planning, as opposed to simulating), and
	// RefineMillis the share of PlanMillis spent in local-search
	// refinement. Non-deterministic like Millis; together they give the
	// plan/refine/simulate phase breakdown of the scalability study.
	PlanMillis   float64
	RefineMillis float64
}

// RunOne executes one algorithm on one cell. The same Params always
// yields the same topology and cycle draws regardless of which algorithms
// run or in what order, so per-cell comparisons are paired.
func RunOne(algo string, p Params) (Outcome, error) {
	pr, err := Prepare(p)
	if err != nil {
		return Outcome{}, err
	}
	return pr.Run(algo, p)
}

// Prepared holds the per-cell state every algorithm of the cell shares:
// the generated topology, its prebuilt metric space, and (in the
// variable regime) the slotted energy model. The space is read-only: a
// materialized Dense matrix up to metric.DenseLimit points, a
// grid-indexed metric.Grid above it (an n×n matrix at n = 50 000 would
// cost 20 GB; the grid answers the same queries exactly in O(n) memory).
// The model's draws are a pure function of (seed, sensor, slot), so
// sharing one lazily-populated instance across the cell's algorithms is
// observationally identical to giving each its own — it just pays the
// expensive per-(slot, sensor) seeding once per cell instead of once
// per algorithm. A Prepared is not safe for concurrent use.
type Prepared struct {
	Net   *wsn.Network
	Space metric.Space

	scratch *Scratch
	lists   *metric.NearestLists

	model     energy.Model
	modelSeed uint64
	modelSlot float64
}

// Scratch is a reusable per-worker arena for cell preparation and
// refinement: the dense matrix backing, the candidate-list arrays, and
// the local-search scratch are rebuilt in place cell after cell, so a
// long sweep's steady-state allocation rate stays near zero. The zero
// value is ready to use; a Scratch must not be shared between
// concurrent PrepareInto calls or concurrently with a Prepared built
// from it.
type Scratch struct {
	space metric.Dense
	lists metric.NearestLists
	tsp   tsp.Scratch
	// pts and grid back the large-n path: the point layout and the grid
	// space are rebuilt in place request after request (capacity
	// watermarking), so a chargerd worker at n=1M reuses its ~24 MB of
	// coordinate and bucket arrays instead of churning them per request.
	pts  []geom.Point
	grid metric.Grid
}

// Prepare generates the cell's topology and materializes its distance
// matrix once, for use with Run across several algorithms.
func Prepare(p Params) (*Prepared, error) { return PrepareInto(p, nil) }

// PrepareInto is Prepare with an optional worker arena: the distance
// matrix (and, lazily, the candidate lists) are built into ws's reused
// storage. The returned Prepared is only valid until ws's next
// PrepareInto.
func PrepareInto(p Params, ws *Scratch) (*Prepared, error) {
	net, err := p.Network()
	if err != nil {
		return nil, err
	}
	return PrepareNetInto(net, ws), nil
}

// PrepareNetInto wraps an already-built network — one that did not come
// from Params.Network, e.g. a topology decoded from a serving request —
// in a Prepared. With a worker arena ws the dense matrix, and lazily the
// candidate lists, are rebuilt into ws's reused storage, so a worker
// that plans topology after topology (a sweep cell or a serving request)
// allocates nothing in steady state; the returned Prepared is then only
// valid until ws's next PrepareInto/PrepareNetInto. A nil ws allocates
// privately.
//
// Topologies above metric.DenseLimit points get a metric.Grid instead
// of a Dense matrix: O(n) memory, exact sub-quadratic queries, and a
// planning pipeline that never materializes O(n²) state (DESIGN.md
// §12). Below the limit the dense path is byte-identical to earlier
// releases.
func PrepareNetInto(net *wsn.Network, ws *Scratch) *Prepared {
	pr := &Prepared{Net: net, scratch: ws}
	if net.N()+net.Q() > metric.DenseLimit {
		if ws == nil {
			pr.Space = metric.NewGrid(net.Points())
			return pr
		}
		// Arena path: lay the points into the worker's reused buffer and
		// rebuild its grid in place. The grid copies the coordinates into
		// its own (equally reused) arrays, and responses carry vertex
		// indices and costs, never slices of these buffers, so nothing
		// pointer-shaped leaks past the next PrepareNetInto.
		ws.pts = net.AppendPoints(ws.pts[:0])
		ws.grid.Rebuild(ws.pts)
		pr.Space = &ws.grid
		return pr
	}
	if ws == nil {
		pr.Space = metric.Materialize(net.Space())
	} else {
		metric.MaterializeInto(net.Space(), &ws.space)
		pr.Space = ws.space
	}
	return pr
}

// Lists returns the cell's shared k-nearest-neighbor candidate lists,
// building them on first use. They are read-only and shared by every
// refining algorithm of the cell; algorithms that never refine must not
// call this (the O(n²) dense build would be pure overhead). On a
// grid-backed cell the lists come from the spatial index — identical
// contents, O(n·k) time and memory.
func (pr *Prepared) Lists() *metric.NearestLists {
	if pr.lists == nil {
		g, isGrid := metric.AsGrid(pr.Space)
		switch {
		case isGrid && pr.scratch != nil:
			pr.scratch.lists.BuildGrid(g, metric.DefaultNearest)
			pr.lists = &pr.scratch.lists
		case isGrid:
			pr.lists = g.NearestLists(metric.DefaultNearest)
		default:
			d, _ := metric.AsDense(pr.Space) // PrepareNetInto builds Dense below the limit
			if pr.scratch != nil {
				pr.scratch.lists.Build(d, metric.DefaultNearest)
				pr.lists = &pr.scratch.lists
			} else {
				pr.lists = d.NearestLists(metric.DefaultNearest)
			}
		}
	}
	return pr.lists
}

// TourOptions wires the cell's shared candidate lists, the worker's
// scratch arena, and the refinement timer into a rooted.Options. The
// lists are only attached when the options actually refine — they are
// what uses them, and building k-NN lists for a construction-only
// algorithm would cost O(n²) for nothing. (MethodClusterFirst builds
// its own per-group lists over flattened subspaces; see
// rooted/clusterfirst.go.) On a grid-backed cell no whole-space lists
// are attached either: grid refinement builds per-tour lists from the
// spatial index (rooted.Options.refine), so full-space lists would
// never be read. Exposed so external planning layers —
// internal/serve's worker pool — reuse the same arena wiring as the
// sweep harness.
func (pr *Prepared) TourOptions(opt *rooted.Options, refineNs *int64) {
	if opt.Refine {
		if _, isGrid := metric.AsGrid(pr.Space); !isGrid {
			opt.Neighbors = pr.Lists()
		}
	}
	if pr.scratch != nil {
		opt.Scratch = &pr.scratch.tsp
	}
	opt.RefineNs = refineNs
}

// Run executes one algorithm on the prepared cell. p must describe the
// same cell the Prepared was built from; results are identical to
// RunOne(algo, p). Millis covers the algorithm only, excluding topology
// generation.
func (pr *Prepared) Run(algo string, p Params) (Outcome, error) {
	dt := p.Dt
	if dt == 0 {
		dt = p.TauMin
	}
	start := time.Now() //lint:allow walltime reported Millis diagnostic, not part of the result metrics
	var out Outcome
	var err error
	if p.Variable {
		out, err = runVariable(algo, p, pr, dt)
	} else {
		out, err = runFixed(algo, p, pr, dt)
	}
	if err != nil {
		return Outcome{}, err
	}
	out.Millis = float64(time.Since(start).Microseconds()) / 1000 //lint:allow walltime reported Millis diagnostic, not part of the result metrics
	return out, nil
}

// slottedModel returns the cell's shared variable-cycle model, building
// it on first use (and rebuilding if p changed, so a reused Prepared
// never serves a stale stream).
func (pr *Prepared) slottedModel(p Params) (energy.Model, error) {
	if pr.model != nil && pr.modelSeed == p.Seed && pr.modelSlot == p.SlotDT { //lint:allow floateq memo-key match must be exact
		return pr.model, nil
	}
	dist, err := p.Dist()
	if err != nil {
		return nil, err
	}
	// The model stream depends only on the cell seed, so every
	// algorithm sees identical cycle trajectories.
	m, err := energy.NewSlotted(pr.Net, dist, p.SlotDT, rng.New(p.Seed).Split(0xE0))
	if err != nil {
		return nil, err
	}
	pr.model, pr.modelSeed, pr.modelSlot = m, p.Seed, p.SlotDT
	return m, nil
}

func runFixed(algo string, p Params, pr *Prepared, dt float64) (Outcome, error) {
	net, space := pr.Net, pr.Space
	var refineNs int64
	switch algo {
	case AlgoMTD, AlgoMTDRefined, AlgoMTDVoronoi, AlgoMTDChristo:
		opt := core.FixedOptions{Rooted: p.Rooted, Base: p.Base, Space: space}
		TourConstruction(algo, &opt.Rooted)
		pr.TourOptions(&opt.Rooted, &refineNs)
		t0 := time.Now() //lint:allow walltime PlanMillis diagnostic timing
		plan, err := core.PlanFixed(net, p.T, opt)
		planMillis := millis(time.Since(t0)) //lint:allow walltime PlanMillis diagnostic timing
		if err != nil {
			return Outcome{}, err
		}
		if err := plan.Schedule.Verify(net.Cycles(), 1e-6); err != nil {
			return Outcome{}, fmt.Errorf("experiment: infeasible %s plan: %w", algo, err)
		}
		return Outcome{
			Cost:         plan.Cost(),
			Dispatches:   plan.Schedule.Dispatches(),
			LowerBound:   plan.LowerBound,
			PlanMillis:   planMillis,
			RefineMillis: millis(time.Duration(refineNs)),
		}, nil
	case AlgoGreedy:
		pol := &core.Greedy{Rooted: p.Rooted}
		pr.TourOptions(&pol.Rooted, &refineNs)
		res, err := sim.Run(net, energy.NewFixed(net), pol,
			sim.Config{T: p.T, Dt: dt, Space: space})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{
			Cost: res.Cost(), Deaths: res.Deaths, Dispatches: res.Schedule.Dispatches(),
			PlanMillis:   millis(time.Duration(pol.PlanNs)),
			RefineMillis: millis(time.Duration(refineNs)),
		}, nil
	case AlgoChargeAll:
		return runChargeAll(p, pr)
	case AlgoQRootedApprox, AlgoQRootedRefined, AlgoQRootedExact:
		return runQRooted(algo, pr)
	default:
		return Outcome{}, fmt.Errorf("experiment: algorithm %q not valid for fixed cycles", algo)
	}
}

// millis converts a duration to fractional milliseconds, the unit the
// sweep aggregates.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// runQRooted evaluates a single q-rooted TSP round over all sensors —
// the unit the approximation-ratio ablation compares against the exact
// optimum on small instances.
func runQRooted(algo string, pr *Prepared) (Outcome, error) {
	net, space := pr.Net, pr.Space
	depots, sensors := net.DepotIndices(), net.SensorIndices()
	switch algo {
	case AlgoQRootedApprox, AlgoQRootedRefined:
		var opt rooted.Options
		TourConstruction(algo, &opt)
		var refineNs int64
		pr.TourOptions(&opt, &refineNs)
		t0 := time.Now() //lint:allow walltime PlanMillis diagnostic timing
		sol := rooted.Tours(space, depots, sensors, opt)
		return Outcome{
			Cost: sol.Cost(), Dispatches: 1, LowerBound: sol.ForestWeight,
			PlanMillis:   millis(time.Since(t0)), //lint:allow walltime PlanMillis diagnostic timing
			RefineMillis: millis(time.Duration(refineNs)),
		}, nil
	default:
		sol, err := rooted.Exact(space, depots, sensors)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Cost: sol.Cost(), Dispatches: 1, LowerBound: sol.Cost()}, nil
	}
}

func runVariable(algo string, p Params, pr *Prepared, dt float64) (Outcome, error) {
	if p.SlotDT <= 0 {
		return Outcome{}, fmt.Errorf("experiment: variable regime needs SlotDT > 0, got %g", p.SlotDT)
	}
	net, space := pr.Net, pr.Space
	model, err := pr.slottedModel(p)
	if err != nil {
		return Outcome{}, err
	}
	var refineNs int64
	switch algo {
	case AlgoMTDVar, AlgoMTDVarNoGuard:
		pol := core.NewVar(p.Rooted)
		pol.NoLifetimeGuard = algo == AlgoMTDVarNoGuard
		pol.UpdateThreshold = p.UpdateThreshold
		pr.TourOptions(&pol.Rooted, &refineNs)
		res, err := sim.Run(net, model, pol, sim.Config{T: p.T, Dt: dt, Gamma: p.Gamma, Space: space})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{
			Cost: res.Cost(), Deaths: res.Deaths,
			Dispatches: res.Schedule.Dispatches(), Replans: pol.Replans,
			PlanMillis:   millis(time.Duration(pol.PlanNs)),
			RefineMillis: millis(time.Duration(refineNs)),
		}, nil
	case AlgoGreedy:
		pol := &core.Greedy{Rooted: p.Rooted}
		pr.TourOptions(&pol.Rooted, &refineNs)
		res, err := sim.Run(net, model, pol,
			sim.Config{T: p.T, Dt: dt, Gamma: p.Gamma, Space: space})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{
			Cost: res.Cost(), Deaths: res.Deaths, Dispatches: res.Schedule.Dispatches(),
			PlanMillis:   millis(time.Duration(pol.PlanNs)),
			RefineMillis: millis(time.Duration(refineNs)),
		}, nil
	default:
		return Outcome{}, fmt.Errorf("experiment: algorithm %q not valid for variable cycles", algo)
	}
}

// runChargeAll evaluates the naive strategy the paper dismisses in
// Section III-C: dispatch all q chargers over *all* sensors every τ_min.
// Its cost is one full q-rooted TSP times the number of τ_min intervals
// in T.
func runChargeAll(p Params, pr *Prepared) (Outcome, error) {
	net := pr.Net
	opt := p.Rooted
	var refineNs int64
	pr.TourOptions(&opt, &refineNs)
	t0 := time.Now() //lint:allow walltime PlanMillis diagnostic timing
	sol := rooted.Tours(pr.Space, net.DepotIndices(), net.SensorIndices(), opt)
	planMillis := millis(time.Since(t0)) //lint:allow walltime PlanMillis diagnostic timing
	tau1 := net.MinCycle()
	rounds := int(math.Ceil(p.T/tau1)) - 1
	if rounds < 0 {
		rounds = 0
	}
	return Outcome{
		Cost: sol.Cost() * float64(rounds), Dispatches: rounds,
		PlanMillis: planMillis, RefineMillis: millis(time.Duration(refineNs)),
	}, nil
}

// Package repro is a production-quality Go reproduction of
//
//	W. Xu, W. Liang, X. Lin, G. Mao, X. Ren,
//	"Towards Perpetual Sensor Networks via Deploying Multiple Mobile
//	Wireless Chargers", ICPP 2014.
//
// The library schedules q mobile wireless chargers, each based at its own
// depot, so that no sensor in a rechargeable WSN ever runs out of energy
// during a monitoring period T, while minimizing the total distance the
// chargers travel (the service cost). It provides:
//
//   - the exact q-rooted minimum spanning forest algorithm and the
//     2-approximate q-rooted TSP algorithm (the paper's Algorithms 1-2),
//   - MinTotalDistance, the 2(K+2)-approximation for fixed maximum
//     charging cycles (Algorithm 3),
//   - MinTotalDistance-var, the re-planning heuristic for variable
//     cycles (Section VI),
//   - the greedy baseline, a discrete-time network simulator, feasibility
//     verifiers, and the full experiment harness regenerating every
//     figure of the paper's evaluation.
//
// This file is the public facade: it re-exports the library's main types
// and entry points so applications depend on a single import path.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/persist"
	"repro/internal/plot"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// Geometry and network modelling.
type (
	// Point is a planar location in metres.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (the deployment field).
	Rect = geom.Rect
	// Network is a deployed sensor network with depots.
	Network = wsn.Network
	// Sensor is one rechargeable sensor node.
	Sensor = wsn.Sensor
	// GenConfig configures random network generation.
	GenConfig = wsn.GenConfig
	// CycleDist draws maximum charging cycles for new sensors.
	CycleDist = wsn.CycleDist
	// LinearDist is the paper's distance-proportional cycle
	// distribution.
	LinearDist = wsn.LinearDist
	// RandomDist is the paper's uniform cycle distribution.
	RandomDist = wsn.RandomDist
	// RoutingModel derives consumption rates from an explicit
	// unit-disk routing substrate.
	RoutingModel = wsn.RoutingModel
	// ClusteredConfig configures clustered (non-uniform) deployments.
	ClusteredConfig = wsn.ClusteredConfig
)

// Scheduling and algorithms.
type (
	// Tour is one closed charging tour rooted at a depot.
	Tour = rooted.Tour
	// TourSolution is a set of q rooted tours (a q-rooted TSP
	// solution).
	TourSolution = rooted.Solution
	// TourOptions configures the q-rooted TSP subroutine.
	TourOptions = rooted.Options
	// Round is one charging scheduling (C_j, t_j).
	Round = sched.Round
	// Schedule is a series of charging schedulings.
	Schedule = sched.Schedule
	// FixedOptions configures MinTotalDistance.
	FixedOptions = core.FixedOptions
	// FixedPlan is MinTotalDistance's output.
	FixedPlan = core.FixedPlan
	// GreedyPolicy is the paper's greedy baseline.
	GreedyPolicy = core.Greedy
	// VarPolicy is the MinTotalDistance-var heuristic.
	VarPolicy = core.Var
	// Kinematics models physical tour execution (speed, charge time)
	// for checking the paper's time-scale assumption.
	Kinematics = sched.Kinematics
	// TimeScaleReport quantifies that assumption for a schedule.
	TimeScaleReport = sched.TimeScaleReport
)

// TourMethod selects the q-rooted tour construction.
type TourMethod = rooted.Method

// Tour construction methods for TourOptions.Method.
const (
	// MethodDoubleTree is the paper's Algorithm 2 (2-approximation).
	MethodDoubleTree = rooted.MethodDoubleTree
	// MethodClusterFirst is Voronoi assignment + local routing.
	MethodClusterFirst = rooted.MethodClusterFirst
	// MethodChristofides replaces edge doubling with a min-weight
	// matching of odd-degree vertices.
	MethodChristofides = rooted.MethodChristofides
)

// Simulation.
type (
	// EnergyModel yields true per-sensor cycles over time.
	EnergyModel = energy.Model
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// ChargerOutage takes one depot's vehicle offline over a window
	// (fault injection).
	ChargerOutage = sim.Outage
	// SimResult summarizes a simulation run.
	SimResult = sim.Result
	// SimEnv is the world state visible to a charging policy.
	SimEnv = sim.Env
	// Policy decides when and whom to charge in a simulation.
	Policy = sim.Policy
)

// Stochastic disturbance and robust planning.
type (
	// DisturbModel is the physical-disturbance interface disturbed
	// simulations query (travel noise, breakdowns, drift, telemetry).
	DisturbModel = disturb.Model
	// DisturbParams are the facet magnitudes of the standard composite
	// disturbance at intensity 1.
	DisturbParams = disturb.Params
	// DisturbedConfig configures a disturbed simulation run.
	DisturbedConfig = sim.Disturbed
	// ReplayPolicy replays a precomputed schedule open-loop — the
	// brittleness baseline for robustness studies.
	ReplayPolicy = sim.ScheduleReplay
	// RedispatchPolicy hardens a base policy with breakdown re-rooting,
	// stranded-sensor recovery and deadline-pressure rescues.
	RedispatchPolicy = sim.Redispatch
)

// Rand is a deterministic splittable random stream (see NewRand).
type Rand = rng.Source

// NoDisturbance is the benign world: every disturbance factor neutral.
var NoDisturbance = disturb.None

// DefaultDisturbParams returns the reference disturbance magnitudes the
// robustness harness sweeps from.
func DefaultDisturbParams() DisturbParams { return disturb.DefaultParams() }

// StandardDisturbance builds the standard composite disturbance (travel
// noise + breakdowns + consumption drift + telemetry degradation) at
// the given intensity; 0 yields the benign world.
func StandardDisturbance(r *rng.Source, intensity float64, p DisturbParams) DisturbModel {
	return disturb.Standard(r, intensity, p)
}

// SimulateDisturbed runs a charging policy inside the stochastic world
// d describes: disturbed travel times, mid-tour charger breakdowns,
// consumption drift and degraded telemetry, with gap-violation and
// near-miss accounting in the result.
func SimulateDisturbed(net *Network, model EnergyModel, policy Policy, cfg SimConfig, d DisturbedConfig) (SimResult, error) {
	return sim.RunDisturbed(net, model, policy, cfg, d)
}

// Experiments.
type (
	// ExperimentConfig carries the evaluation defaults of the paper.
	ExperimentConfig = experiment.Config
	// Series is a completed parameter sweep.
	Series = experiment.Series
	// Sweep is a configurable parameter sweep.
	Sweep = experiment.Sweep
)

// NewRand returns a deterministic, splittable random stream.
func NewRand(seed uint64) *rng.Source { return rng.New(seed) }

// Generate deploys a random network. See wsn.Generate.
func Generate(r *rng.Source, cfg GenConfig) (*Network, error) { return wsn.Generate(r, cfg) }

// GenerateClustered deploys a non-uniform network whose sensors
// concentrate in Gaussian clusters.
func GenerateClustered(r *rng.Source, cfg ClusteredConfig) (*Network, error) {
	return wsn.GenerateClustered(r, cfg)
}

// SplitTours enforces a per-sortie travel budget on a tour solution,
// splitting over-budget tours into multiple closed tours from the same
// depot (capacity-limited chargers).
func SplitTours(net *Network, sol TourSolution, budget float64) (TourSolution, error) {
	return rooted.SplitTours(metric.Materialize(net.Space()), sol, budget)
}

// ExactTours solves the q-rooted TSP optimally on a small instance
// (at most rooted.MaxExactSensors sensors) for certification and
// ratio studies.
func ExactTours(net *Network, sensors []int) (TourSolution, error) {
	return rooted.Exact(metric.Materialize(net.Space()), net.DepotIndices(), sensors)
}

// Replay drives a precomputed schedule against a true energy model with
// exact event-driven integration, reporting deaths and safety margins.
func Replay(net *Network, model EnergyModel, schedule *Schedule) (sim.ReplayResult, error) {
	return sim.Replay(net, model, schedule)
}

// RootedTours solves the q-rooted TSP problem 2-approximately over the
// network's metric space for the given sensor IDs (Algorithm 2).
func RootedTours(net *Network, sensors []int, opt TourOptions) TourSolution {
	return rooted.Tours(metric.Materialize(net.Space()), net.DepotIndices(), sensors, opt)
}

// PlanFixed runs MinTotalDistance (Algorithm 3) for fixed maximum
// charging cycles.
func PlanFixed(net *Network, T float64, opt FixedOptions) (*FixedPlan, error) {
	return core.PlanFixed(net, T, opt)
}

// RunGreedyFixed simulates the greedy baseline over fixed cycles.
func RunGreedyFixed(net *Network, T, dt float64, opt TourOptions) (SimResult, error) {
	return core.RunGreedyFixed(net, T, dt, opt)
}

// NewFixedModel freezes the network's current cycles as the true energy
// model.
func NewFixedModel(net *Network) EnergyModel { return energy.NewFixed(net) }

// NewSlottedModel redraws cycles from dist every dt time units; draws
// are a pure function of the stream's seed.
func NewSlottedModel(net *Network, dist CycleDist, dt float64, r *rng.Source) (EnergyModel, error) {
	return energy.NewSlotted(net, dist, dt, r)
}

// RunVar simulates the MinTotalDistance-var heuristic under the given
// true energy model. gamma is the EWMA smoothing factor (0 means 1).
func RunVar(net *Network, model EnergyModel, T, dt, gamma float64, opt TourOptions) (SimResult, *VarPolicy, error) {
	return core.RunVar(net, model, T, dt, gamma, opt)
}

// RunGreedyVar simulates the greedy baseline under a variable energy
// model.
func RunGreedyVar(net *Network, model EnergyModel, T, dt, gamma float64, opt TourOptions) (SimResult, error) {
	return core.RunGreedyVar(net, model, T, dt, gamma, opt)
}

// Simulate runs an arbitrary charging policy.
func Simulate(net *Network, model EnergyModel, policy Policy, cfg SimConfig) (SimResult, error) {
	return sim.Run(net, model, policy, cfg)
}

// Figure reproduces one of the paper's evaluation figures (IDs "1a",
// "1b", "2a", "2b", "3", "4", "5", "6") or one of the ablations; see
// experiment.FigureIDs.
func Figure(id string, cfg ExperimentConfig) (Series, error) {
	return experiment.Figure(id, cfg)
}

// FigureIDs lists all known figure/ablation identifiers.
func FigureIDs() []string { return experiment.FigureIDs() }

// WriteMap renders the network and a set of charging tours as a
// standalone SVG deployment map.
func WriteMap(w io.Writer, net *Network, tours []Tour, title string) error {
	return plot.WriteMap(w, net, tours, title)
}

// WriteNetworkJSON serializes a network as versioned JSON.
func WriteNetworkJSON(w io.Writer, net *Network) error { return persist.WriteNetwork(w, net) }

// ReadNetworkJSON deserializes and validates a network written by
// WriteNetworkJSON.
func ReadNetworkJSON(r io.Reader) (*Network, error) { return persist.ReadNetwork(r) }

// WriteScheduleJSON serializes a charging schedule as versioned JSON.
func WriteScheduleJSON(w io.Writer, s *Schedule) error { return persist.WriteSchedule(w, s) }

// ReadScheduleJSON deserializes a schedule written by WriteScheduleJSON.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) { return persist.ReadSchedule(r) }

// BalanceTours relocates stops from the longest tour to cheaper hosts
// while the maximum single-tour length strictly decreases — the min-max
// objective of the companion k-charger problem.
func BalanceTours(net *Network, sol TourSolution, maxMoves int) TourSolution {
	return rooted.BalanceTours(metric.Materialize(net.Space()), sol, maxMoves)
}

// Tracer wraps a policy and records a per-epoch network-health time
// series (residual-energy fractions, dispatch sizes and costs).
type Tracer = sim.Tracer

// NewTracer wraps a policy for health tracing.
func NewTracer(p Policy) *Tracer { return sim.NewTracer(p) }

// WriteTraceSVG renders a recorded health trace as a standalone SVG.
func WriteTraceSVG(w io.Writer, trace []sim.TracePoint, title string) error {
	return plot.WriteTraceSVG(w, trace, title)
}

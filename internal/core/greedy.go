package core

import (
	"fmt"
	"time"

	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// Greedy is the paper's baseline charging policy (Section VII-A): each
// sensor requests a charge when its estimated residual lifetime drops
// below the threshold Δl; at every decision epoch the base station
// dispatches the q chargers on a q-rooted TSP round over all sensors
// currently below threshold. It deliberately charges each sensor as
// rarely as possible and ignores co-location opportunities beyond the
// current emergency set.
type Greedy struct {
	// Threshold is Δl; 0 defaults to the simulation's decision
	// granularity Dt, which in the paper's setup equals τ_min = 1 —
	// the smallest threshold that still guarantees no sensor expires
	// between two decision epochs.
	Threshold float64
	// Rooted configures the q-rooted TSP rounds.
	Rooted rooted.Options
	// PlanNs accumulates wall-clock nanoseconds spent building rounds
	// (diagnostic, non-deterministic; see core.Var.PlanNs).
	PlanNs int64

	threshold float64
	need      []int // Decide's request list, reused across epochs
}

// Name implements sim.Policy.
func (g *Greedy) Name() string { return "Greedy" }

// Init implements sim.Policy.
func (g *Greedy) Init(env *sim.Env) error {
	g.threshold = g.Threshold
	if g.threshold == 0 {
		g.threshold = env.Dt
	}
	if g.threshold < 0 {
		return fmt.Errorf("core: greedy threshold must be non-negative, got %g", g.Threshold)
	}
	if g.threshold < env.Dt {
		// A sensor can burn through Dt worth of lifetime between two
		// decision epochs; a smaller threshold cannot guarantee
		// perpetual operation at this granularity.
		return fmt.Errorf("core: greedy threshold %g below decision granularity %g would let sensors expire",
			g.threshold, env.Dt)
	}
	return nil
}

// Decide implements sim.Policy.
func (g *Greedy) Decide(env *sim.Env, t float64) ([]rooted.Tour, error) {
	const eps = 1e-9
	need := g.need[:0]
	for i := range env.Net.Sensors {
		if env.ResidualLife(i) <= g.threshold+eps {
			need = append(need, i)
		}
	}
	g.need = need
	if len(need) == 0 {
		return nil, nil
	}
	t0 := time.Now() //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	sol := rooted.Tours(env.Space, env.ActiveDepots(), need, g.Rooted)
	g.PlanNs += int64(time.Since(t0)) //lint:allow walltime diagnostic PlanNs accounting, never feeds results
	return sol.Tours, nil
}

// RunGreedyFixed runs the greedy baseline over a fixed-cycle network for
// period T at decision granularity dt (0 defaults to τ_min) and returns
// the simulation result. It is the fixed-cycle counterpart of PlanFixed
// for the Figure 1 and 2 experiments.
func RunGreedyFixed(net *wsn.Network, T, dt float64, opt rooted.Options) (sim.Result, error) {
	return sim.Run(net, fixedModel(net), &Greedy{Rooted: opt}, sim.Config{T: T, Dt: dt})
}

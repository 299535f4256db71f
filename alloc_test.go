package repro

import (
	"testing"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/sim"
)

// skipAllocTests skips the allocation budgets where instrumentation
// allocates on its own: the race detector, and the checks layer, whose
// postconditions validate every round.
func skipAllocTests(t *testing.T) {
	t.Helper()
	if raceEnabled || check.Enabled {
		t.Skip("allocation budgets hold for plain builds only")
	}
}

// nonEmptyTours counts the tours that carry stops.
func nonEmptyTours(tours []rooted.Tour) int {
	n := 0
	for _, tr := range tours {
		if len(tr.Stops) > 0 {
			n++
		}
	}
	return n
}

// TestToursSteadyStateAllocs pins what a q-rooted round allocates once
// the pooled round arena has grown: the Tours slice and one Stops per
// non-empty tour, nothing sized by the space or rebuilt per round.
func TestToursSteadyStateAllocs(t *testing.T) {
	skipAllocTests(t)
	net, err := Generate(NewRand(17), GenConfig{
		N: 200, Q: 5, Dist: LinearDist{TauMin: 1, TauMax: 50, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sp metric.Space = metric.Materialize(net.Space()) // boxed once, as callers hold it
	depots := net.DepotIndices()
	var sensors []int // a Greedy-sized round: every third sensor
	for i, s := range net.SensorIndices() {
		if i%3 == 0 {
			sensors = append(sensors, s)
		}
	}
	opt := rooted.Options{Workers: 1}
	budget := 1 + nonEmptyTours(rooted.Tours(sp, depots, sensors, opt).Tours)
	if got := testing.AllocsPerRun(100, func() { rooted.Tours(sp, depots, sensors, opt) }); got > float64(budget) {
		t.Errorf("rooted.Tours made %v allocations per round, budget %d", got, budget)
	}
}

// greedyAllocProbe measures the allocations of every dispatching
// Greedy decision of a run, repeating it at the same instant, which
// Decide allows: it reads the environment without changing it.
type greedyAllocProbe struct {
	*core.Greedy
	t      *testing.T
	rounds int
}

func (p *greedyAllocProbe) Decide(env *sim.Env, now float64) ([]rooted.Tour, error) {
	tours, err := p.Greedy.Decide(env, now)
	if err != nil || len(tours) == 0 {
		return tours, err
	}
	p.rounds++
	budget := 1 + nonEmptyTours(tours)
	got := testing.AllocsPerRun(20, func() {
		if _, err := p.Greedy.Decide(env, now); err != nil {
			p.t.Error(err)
		}
	})
	if got > float64(budget) {
		p.t.Errorf("Greedy.Decide at t=%g made %v allocations, budget %d", now, got, budget)
	}
	return tours, nil
}

// TestGreedyDecideSteadyStateAllocs pins the same budget on Greedy's
// decisions inside a small simulation: the request list is reused and
// the round allocates only the tours it returns.
func TestGreedyDecideSteadyStateAllocs(t *testing.T) {
	skipAllocTests(t)
	net, err := Generate(NewRand(3), GenConfig{
		N: 60, Q: 3, Dist: LinearDist{TauMin: 1, TauMax: 20, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := &greedyAllocProbe{Greedy: &core.Greedy{Rooted: rooted.Options{Workers: 1}}, t: t}
	if _, err := sim.Run(net, energy.NewFixed(net), probe, sim.Config{T: 60, Dt: 1}); err != nil {
		t.Fatal(err)
	}
	if probe.rounds == 0 {
		t.Fatal("no Greedy round dispatched")
	}
}

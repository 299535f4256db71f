package rooted

import (
	"fmt"

	"repro/internal/metric"
)

// SplitTours enforces a per-tour travel budget: any tour longer than
// budget is split into several closed tours from the same depot, using
// the classic route-splitting walk (accumulate stops until adding the
// next stop plus the return edge would overshoot, then close the tour
// and start a new one).
//
// This models mobile chargers with finite battery/fuel per sortie — the
// energy-capacity constraint studied by the paper's companion work
// (Liang et al., LCN 2014) — which the main paper assumes away. The
// paper's schedules can be post-processed with SplitTours to make them
// executable by capacity-limited vehicles.
//
// budget must be at least twice the depot's distance to each of the
// tour's stops (otherwise that stop is unreachable on any closed tour
// and an error is returned). Splitting never drops a stop and, under
// the triangle inequality, each piece respects the budget.
func SplitTours(sp metric.Space, sol Solution, budget float64) (Solution, error) {
	if budget <= 0 {
		return Solution{}, fmt.Errorf("rooted: budget must be positive, got %g", budget)
	}
	out := Solution{ForestWeight: sol.ForestWeight}
	for _, tour := range sol.Tours {
		pieces, err := splitOne(sp, tour, budget)
		if err != nil {
			return Solution{}, err
		}
		out.Tours = append(out.Tours, pieces...)
	}
	return out, nil
}

// splitOne cuts one tour into budget-respecting pieces.
//
//lint:allow hotdist one linear walk per tour with zero calls on every benchmark workload; a type-parameter Dense instantiation measured no faster than this interface call
func splitOne(sp metric.Space, t Tour, budget float64) ([]Tour, error) {
	if t.Cost <= budget || len(t.Stops) == 0 {
		return []Tour{t}, nil
	}
	for _, s := range t.Stops {
		if need := 2 * sp.Dist(t.Depot, s); need > budget+1e-9 {
			return nil, unreachableStopErr(s, need, budget, t.Depot)
		}
	}
	var pieces []Tour
	cur := Tour{Depot: t.Depot}
	length := 0.0 // travelled so far excluding the return edge
	last := t.Depot
	for _, s := range t.Stops {
		extend := length + sp.Dist(last, s) + sp.Dist(s, t.Depot)
		if len(cur.Stops) > 0 && extend > budget+1e-9 {
			cur.Cost = length + sp.Dist(last, t.Depot)
			pieces = append(pieces, cur)
			cur = Tour{Depot: t.Depot}
			length = 0
			last = t.Depot
		}
		length += sp.Dist(last, s)
		cur.Stops = append(cur.Stops, s)
		last = s
	}
	cur.Cost = length + sp.Dist(last, t.Depot)
	pieces = append(pieces, cur)
	return pieces, nil
}

// unreachableStopErr keeps splitOne's error construction out of its
// per-stop loop.
func unreachableStopErr(stop int, need, budget float64, depot int) error {
	return fmt.Errorf("rooted: stop %d needs round trip %g > budget %g from depot %d", stop, need, budget, depot)
}

// MaxTourCost returns the longest single tour in the solution — the
// min-max objective of the companion k-charger scheduling problem.
func (s Solution) MaxTourCost() float64 {
	var m float64
	for _, t := range s.Tours {
		if t.Cost > m {
			m = t.Cost
		}
	}
	return m
}

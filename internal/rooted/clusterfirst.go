package rooted

import (
	"math"

	"repro/internal/metric"
	"repro/internal/tsp"
)

// Method selects the q-rooted TSP construction.
type Method int

const (
	// MethodDoubleTree is the paper's Algorithm 2: exact q-rooted MSF,
	// double each tree, Euler walk, shortcut. Carries the proven
	// factor-2 guarantee.
	MethodDoubleTree Method = iota
	// MethodClusterFirst is the classic VRP "cluster first, route
	// second" heuristic: assign each sensor to its nearest depot
	// (Voronoi partition), then build each depot's tour with nearest
	// neighbour followed by 2-opt/Or-opt. No worst-case guarantee;
	// the tour-construction ablation compares it against Algorithm 2.
	MethodClusterFirst
	// MethodChristofides keeps Algorithm 1's exact forest but converts
	// each tree with the Christofides construction (min-weight
	// matching of odd-degree vertices) instead of edge doubling. With
	// exact matchings (small odd sets) each tree's tour is within 1.5x
	// of its optimal; larger trees use a greedy matching heuristic.
	MethodChristofides
)

// clusterFirst builds a solution by Voronoi assignment + local routing.
// The reported ForestWeight is still the exact q-rooted MSF weight, so
// the certified lower bound remains valid for cost comparisons.
func clusterFirst(sp metric.Space, depots, sensors []int, opt Options) Solution {
	f := MSF(sp, depots, sensors) // for the lower bound only
	sol := Solution{ForestWeight: f.Weight}
	groups := make(map[int][]int, len(depots))
	if dm, ok := metric.AsDense(sp); ok {
		for _, s := range sensors {
			row := dm.Row(s)
			best, bd := -1, math.Inf(1)
			for _, d := range depots {
				if w := row[d]; w < bd {
					best, bd = d, w
				}
			}
			groups[best] = append(groups[best], s)
		}
	} else {
		for _, s := range sensors {
			best, bd := -1, math.Inf(1)
			for _, d := range depots {
				if w := sp.Dist(s, d); w < bd { //lint:allow hotdist non-Dense fallback twin of the row loop above
					best, bd = d, w
				}
			}
			groups[best] = append(groups[best], s)
		}
	}
	for _, d := range depots {
		t := Tour{Depot: d}
		group := groups[d]
		if len(group) > 0 {
			local := append([]int{d}, group...) //lint:allow hotalloc ablation-only route, one fresh subspace per depot group by design
			// The local route is refined with O(n^2)-per-sweep search,
			// so flatten the subspace once instead of double-indirecting
			// through the parent on every distance query.
			sub := metric.NewSub(sp, local).Flatten()
			tour := tsp.NearestNeighbor(sub, 0)
			// opt.Neighbors indexes the parent space, so it cannot be
			// used on the flattened subspace; build per-group lists once
			// and share them between both refiners when the group is big
			// enough to amortize the build.
			ropt := opt
			ropt.Neighbors = nil
			if len(local) >= 64 {
				ropt.Neighbors = sub.NearestLists(metric.DefaultNearest)
			}
			tour = ropt.refine(sub, tour)
			for _, v := range tour[1:] {
				t.Stops = append(t.Stops, local[v])
			}
			t.Cost = tsp.Cost(sp, t.Vertices())
		}
		sol.Tours = append(sol.Tours, t)
	}
	return sol
}

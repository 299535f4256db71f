package rooted

import (
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
	// The forest gives the lower bound, and its nearest-depot table
	// (first depot at minimum distance) the Voronoi cells.
	ar := roundArenaPool.Get().(*roundArena)
	sol := Solution{ForestWeight: msf(sp, depots, sensors, 1, ar).Weight}
	groups := make(map[int][]int, len(depots))
	for i, s := range sensors {
		d := int(ar.nearest[i])
		groups[d] = append(groups[d], s)
	}
	roundArenaPool.Put(ar)
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

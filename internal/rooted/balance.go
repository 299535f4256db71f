package rooted

import (
	"math"

	"repro/internal/metric"
	"repro/internal/tsp"
)

// BalanceTours post-processes a q-rooted solution towards the min-max
// objective of the companion k-charger problem (Xu, Liang & Lin,
// "Approximation algorithms for min-max cycle cover problems"):
// repeatedly take the longest tour and try to hand one of its stops to
// another tour (re-inserting at the receiver's cheapest position and
// locally re-routing the donor) while the maximum tour length strictly
// decreases. The total cost may grow — that is the min-max/min-sum
// trade-off the paper's Section II discusses.
//
// The returned solution covers exactly the same sensors, rooted at the
// same depots. maxMoves bounds the number of relocations (0 means a
// default of 4x the sensor count). The search runs over a Dense matrix:
// a Dense sp is used as is, any other space is materialized once. It
// builds candidate lists when tsp.AutoLists finds the solution large
// enough to amortize them.
func BalanceTours(sp metric.Space, sol Solution, maxMoves int) Solution {
	d := metric.Materialize(sp)
	n := len(sol.Tours)
	for _, t := range sol.Tours {
		n += len(t.Stops)
	}
	return balanceTours(d, tsp.AutoLists(d, n), sol, maxMoves, nil)
}

// balanceTours is the relocation search over a Dense space. Non-nil
// candidate lists (built from d) shortlist the 2-opt re-routing and the
// insertion points; nil lists examine every position, with the same
// relocations either way. A nil sc allocates privately.
func balanceTours(d metric.Dense, nl *metric.NearestLists, sol Solution, maxMoves int, sc *tsp.Scratch) Solution {
	if sc == nil {
		sc = tsp.NewScratch()
	}
	out := Solution{ForestWeight: sol.ForestWeight}
	out.Tours = make([]Tour, len(sol.Tours))
	for i, t := range sol.Tours {
		out.Tours[i] = Tour{Depot: t.Depot, Stops: append([]int(nil), t.Stops...), Cost: t.Cost}
	}
	nStops := 0
	for _, t := range out.Tours {
		nStops += len(t.Stops)
	}
	if maxMoves <= 0 {
		maxMoves = 4 * nStops
	}
	if len(out.Tours) < 2 {
		return out
	}
	for move := 0; move < maxMoves; move++ {
		// Longest tour is the donor.
		donor := 0
		for i, t := range out.Tours {
			if t.Cost > out.Tours[donor].Cost {
				donor = i
			}
		}
		if len(out.Tours[donor].Stops) == 0 {
			break
		}
		maxLen := out.Tours[donor].Cost
		bestStop, bestRecv, bestNewMax := -1, -1, maxLen
		var bestDonor, bestRecvTour Tour
		for si, s := range out.Tours[donor].Stops {
			donorWithout := removeStop(d, nl, out.Tours[donor], si, sc)
			for ri := range out.Tours {
				if ri == donor {
					continue
				}
				recvWith := insertCheapest(d, nl, out.Tours[ri], s, sc)
				newMax := math.Max(donorWithout.Cost, recvWith.Cost)
				for oi, o := range out.Tours {
					if oi != donor && oi != ri {
						newMax = math.Max(newMax, o.Cost)
					}
				}
				if newMax < bestNewMax-1e-9 {
					bestNewMax = newMax
					bestStop, bestRecv = si, ri
					bestDonor, bestRecvTour = donorWithout, recvWith
				}
			}
		}
		if bestStop < 0 {
			break // no improving relocation
		}
		out.Tours[donor] = bestDonor
		out.Tours[bestRecv] = bestRecvTour
	}
	return out
}

// removeStop returns tour t without its si-th stop, lightly re-optimized
// with two rounds of 2-opt.
func removeStop(d metric.Dense, nl *metric.NearestLists, t Tour, si int, sc *tsp.Scratch) Tour {
	stops := make([]int, 0, len(t.Stops)-1)
	stops = append(stops, t.Stops[:si]...)
	stops = append(stops, t.Stops[si+1:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	if len(stops) > 2 {
		v := nt.Vertices()
		v, _ = tsp.TwoOptLists(d, nl, v, 2, sc)
		nt.Stops = v[1:]
	}
	nt.Cost = tsp.Cost(d, nt.Vertices())
	return nt
}

// insertCheapest inserts sensor s into tour t at the position that
// increases its length least (tsp.InsertionPoint).
func insertCheapest(d metric.Dense, nl *metric.NearestLists, t Tour, s int, sc *tsp.Scratch) Tour {
	verts := t.Vertices()
	bestPos, _ := tsp.InsertionPoint(d, nl, verts, s, sc)
	stops := make([]int, 0, len(t.Stops)+1)
	stops = append(stops, verts[1:bestPos]...)
	stops = append(stops, s)
	stops = append(stops, verts[bestPos:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	nt.Cost = tsp.Cost(d, nt.Vertices())
	return nt
}

package rooted

import (
	"math"

	"repro/internal/metric"
	"repro/internal/tsp"
)

// balanceToursOracle is the plain relocation search the Dense
// balanceTours is held to: every insertion point is scanned through
// metric.Space.Dist, with no candidate lists and no scratch arena.
func balanceToursOracle[S metric.Space](sp S, sol Solution, maxMoves int) Solution {
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
			donorWithout := removeStopOracle(sp, out.Tours[donor], si)
			for ri := range out.Tours {
				if ri == donor {
					continue
				}
				recvWith := insertCheapestOracle(sp, out.Tours[ri], s)
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

// removeStopOracle returns tour t without its si-th stop, lightly
// re-optimized with 2-opt.
func removeStopOracle[S metric.Space](sp S, t Tour, si int) Tour {
	stops := make([]int, 0, len(t.Stops)-1)
	stops = append(stops, t.Stops[:si]...)
	stops = append(stops, t.Stops[si+1:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	if len(stops) > 2 {
		v := nt.Vertices()
		v, _ = tsp.TwoOpt(sp, v, 2)
		nt.Stops = v[1:]
	}
	nt.Cost = tsp.Cost(sp, nt.Vertices())
	return nt
}

// insertCheapestOracle inserts sensor s into tour t at the position
// that increases its length least, by a plain linear scan.
func insertCheapestOracle[S metric.Space](sp S, t Tour, s int) Tour {
	verts := t.Vertices()
	bestPos, bestDelta := len(verts), math.Inf(1)
	for i := 0; i < len(verts); i++ {
		a := verts[i]
		b := verts[(i+1)%len(verts)]
		if delta := sp.Dist(a, s) + sp.Dist(s, b) - sp.Dist(a, b); delta < bestDelta {
			bestPos, bestDelta = i+1, delta
		}
	}
	stops := make([]int, 0, len(t.Stops)+1)
	stops = append(stops, verts[1:bestPos]...)
	stops = append(stops, s)
	stops = append(stops, verts[bestPos:]...)
	nt := Tour{Depot: t.Depot, Stops: stops}
	nt.Cost = tsp.Cost(sp, nt.Vertices())
	return nt
}

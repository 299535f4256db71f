package tsp

import "repro/internal/metric"

// The plain first-improvement sweeps below are the independent oracle the
// equivalence suites hold the production kernels to: every position is
// examined through metric.Space.Dist, with no candidate lists, no cached
// edge lengths and no in-place bookkeeping. TwoOptLists, OrOptLists,
// SegmentExchangeLists and the Grid kernels must make the same moves in
// the same order and return the same tours, whatever lists they are given.

func twoOpt[S metric.Space](sp S, tour []int, maxRounds int) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	moves := 0
	if n < 4 {
		return tour, 0
	}
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a, b := tour[i], tour[(i+1)%n]
			dab := sp.Dist(a, b)
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // would reverse the whole tour
				}
				c, d := tour[j], tour[(j+1)%n]
				delta := sp.Dist(a, c) + sp.Dist(b, d) - dab - sp.Dist(c, d)
				if delta < -eps {
					// Reverse tour[i+1..j].
					for l, r := i+1, j; l < r; l, r = l+1, r-1 {
						tour[l], tour[r] = tour[r], tour[l]
					}
					b = tour[(i+1)%n]
					dab = sp.Dist(a, b)
					improved = true
					moves++
				}
			}
		}
		if !improved {
			break
		}
	}
	return tour, moves
}

func orOpt[S metric.Space](sp S, tour []int, maxRounds int) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	moves := 0
	if n < 5 {
		return tour, 0
	}
	at := func(i int) int { return tour[((i%n)+n)%n] }
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for segLen := 1; segLen <= 3; segLen++ {
			for i := 1; i+segLen <= n; i++ { // never move tour[0]
				p0 := at(i - 1)
				s0 := tour[i]
				s1 := tour[i+segLen-1]
				p1 := at(i + segLen)
				removeGain := sp.Dist(p0, s0) + sp.Dist(s1, p1) - sp.Dist(p0, p1)
				if removeGain <= eps {
					continue
				}
				bestJ, bestDelta := -1, -eps
				for j := 0; j < n; j++ {
					// Insert after position j; skip positions inside
					// or adjacent to the segment.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					a := tour[j]
					b := at(j + 1)
					insCost := sp.Dist(a, s0) + sp.Dist(s1, b) - sp.Dist(a, b)
					if delta := insCost - removeGain; delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
				if bestJ < 0 {
					continue
				}
				tour = relocate(tour, i, segLen, bestJ)
				improved = true
				moves++
			}
		}
		if !improved {
			break
		}
	}
	return tour, moves
}

func segmentExchange[S metric.Space](sp S, tour []int, maxRounds int) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	moves := 0
	if n < 5 {
		return tour, 0
	}
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-3; i++ {
			a, b := tour[i], tour[i+1]
			dab := sp.Dist(a, b)
			for j := i + 1; j < n-2; j++ {
				c, d := tour[j], tour[j+1]
				dcd := sp.Dist(c, d)
				for k := j + 1; k < n; k++ {
					e := tour[k]
					f := tour[(k+1)%n]
					if i == 0 && k == n-1 {
						continue // wraps the whole tour
					}
					delta := sp.Dist(a, d) + sp.Dist(e, b) + sp.Dist(c, f) -
						dab - dcd - sp.Dist(e, f)
					if delta < -eps {
						tour = exchangeSegments(tour, i, j, k)
						moves++
						improved = true
						// Positions shifted; restart this i iteration
						// with fresh values.
						b = tour[i+1]
						dab = sp.Dist(a, b)
						c, d = tour[j], tour[j+1]
						dcd = sp.Dist(c, d)
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return tour, moves
}

// exchangeSegments rebuilds the tour as A + C + B + rest where
// A = tour[0..i], B = tour[i+1..j], C = tour[j+1..k].
func exchangeSegments(tour []int, i, j, k int) []int {
	out := make([]int, 0, len(tour))
	out = append(out, tour[:i+1]...)
	out = append(out, tour[j+1:k+1]...)
	out = append(out, tour[i+1:j+1]...)
	out = append(out, tour[k+1:]...)
	return out
}

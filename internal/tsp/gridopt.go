package tsp

import (
	"repro/internal/metric"
)

// This file implements the on-grid variants of the candidate-list
// local-search refiners: the same first-improvement sweeps as
// TwoOptLists/OrOptLists — identical scan order, identical strict-<
// tie-breaking, identical elen gates and radius fallbacks — but reading
// distances from a metric.Coords coordinate view instead of a
// materialized Dense sub-matrix. Coords.Dist is the same math.Hypot the
// Dense build evaluates, so every comparison sees identical bits and
// the refined tour is bit-identical to flattening the tour into a local
// Dense and running the Lists sweeps (the property pinned by
// TestGridRefinersMatchFlatten). What disappears is the O(m²) flatten:
// memory per tour drops from 8m² bytes to the O(m·k) candidate lists,
// which is what lets RefineTourGrid polish million-sensor tours that
// the former gridRefineCap=4096 ceiling had to skip entirely.
//
// The per-move cost trades one array load for one hypot — a fine trade
// against an 8m² block that would evict everything else from cache.

// TwoOptGrid is TwoOptLists over a coordinate view: tour entries are
// local indices into cs, and nl must have been built over the same
// member set (a grid sub-index). nil nl examines every position in the
// same loop; the result is bit-identical to TwoOptLists on the
// flattened Dense.
func TwoOptGrid(cs metric.Coords, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	if n < 4 {
		return tour, 0
	}
	if sc == nil {
		sc = NewScratch()
	}
	pos := sc.positions(cs.Len())
	elen := sc.edges(n)
	for idx, v := range tour {
		pos[v] = int32(idx)
		elen[idx] = cs.Dist(v, tour[(idx+1)%n])
	}
	moves := 0
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a := tour[i]
			jStart := i + 2
			full := nl == nil
			for jStart < n {
				b := tour[i+1]
				dab := elen[i]
				// The candidate radius is dab; if either truncated list
				// cannot certify completeness at that radius, scan every
				// j for this row (sticky: a move only shrinks dab's
				// relevance for the remainder of the row).
				if !full && (dab > nl.Radius(a) || dab > nl.Radius(b)) {
					full = true
				}
				var cand []int32
				ci := 0
				if !full {
					cand = sc.gatherTwoOpt(nl, pos, a, b, jStart, n, dab)
				}
				moved := false
				for j := jStart; j < n; j++ {
					if !full {
						for ci < len(cand) && int(cand[ci]) < j {
							ci++
						}
						// Exactness: same bracket argument as TwoOptLists —
						// an improving move with d(c,d) = elen[j] <= dab
						// puts a list vertex strictly within dab of a or b,
						// so j is marked.
						if (ci == len(cand) || int(cand[ci]) != j) && elen[j] <= dab {
							continue
						}
					}
					if i == 0 && j == n-1 {
						continue // would reverse the whole tour
					}
					c, dv := tour[j], tour[(j+1)%n]
					delta := cs.Dist(a, c) + cs.Dist(b, dv) - dab - elen[j]
					if delta < -eps {
						reverseSegmentGrid(cs, tour, pos, elen, i, j)
						moves++
						improved = true
						if full {
							// The plain sweep keeps scanning the same
							// row after a move; mirror it in place.
							b = tour[i+1]
							dab = elen[i]
							continue
						}
						// Candidate marks were computed against the old
						// b and dab; regather for the rest of the row.
						jStart = j + 1
						moved = true
						break
					}
				}
				if !moved {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	for _, v := range tour {
		pos[v] = -1
	}
	return tour, moves
}

// reverseSegmentGrid is reverseSegment over a coordinate view: it
// reverses tour[i+1..j] in place, maintaining pos and elen — interior
// edge lengths mirror around the segment center, and only the two
// boundary edges are recomputed.
func reverseSegmentGrid(cs metric.Coords, tour []int, pos []int32, elen []float64, i, j int) {
	for l, r := i+1, j; l < r; l, r = l+1, r-1 {
		tour[l], tour[r] = tour[r], tour[l]
		pos[tour[l]] = int32(l)
		pos[tour[r]] = int32(r)
	}
	for l, r := i+1, j-1; l < r; l, r = l+1, r-1 {
		elen[l], elen[r] = elen[r], elen[l]
	}
	elen[i] = cs.Dist(tour[i], tour[i+1])
	elen[j] = cs.Dist(tour[j], tour[(j+1)%len(tour)])
}

// OrOptGrid is OrOptLists over a coordinate view; same contracts as
// TwoOptGrid, bit-identical to OrOptLists on the flattened Dense.
func OrOptGrid(cs metric.Coords, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	if n < 5 {
		return tour, 0
	}
	if nl == nil {
		nl = &noLists
	}
	if sc == nil {
		sc = NewScratch()
	}
	pos := sc.positions(cs.Len())
	elen := sc.edges(n)
	reindex := func() {
		for idx, v := range tour {
			pos[v] = int32(idx)
			elen[idx] = cs.Dist(v, tour[(idx+1)%n])
		}
	}
	reindex()
	at := func(i int) int { return tour[((i%n)+n)%n] }
	moves := 0
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for segLen := 1; segLen <= 3; segLen++ {
			for i := 1; i+segLen <= n; i++ { // never move tour[0]
				p0 := tour[i-1]
				s0 := tour[i]
				s1 := tour[i+segLen-1]
				p1 := at(i + segLen)
				removeGain := cs.Dist(p0, s0) + cs.Dist(s1, p1) - cs.Dist(p0, p1)
				if removeGain <= eps {
					continue
				}
				// Exactness: same bound chain as OrOptLists — an improving
				// insertion after j forces d(s0,a) < removeGain + elen[j],
				// so below theta the position is marked via s0's complete
				// neighborhood; at or above theta it is evaluated normally.
				theta := nl.Radius(s0) - removeGain
				cand := sc.cand[:0]
				ids, ds := nl.Neighbors(s0)
				for t := range ids {
					if p := pos[ids[t]]; p >= 0 && ds[t] < removeGain+elen[p] {
						cand = append(cand, p)
					}
				}
				sortInt32(cand)
				sc.cand = cand
				ci := 0
				bestJ, bestDelta := -1, -eps
				for j := 0; j < n; j++ {
					for ci < len(cand) && int(cand[ci]) < j {
						ci++
					}
					if (ci == len(cand) || int(cand[ci]) != j) && elen[j] < theta {
						continue
					}
					// Skip positions inside or adjacent to the segment.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					a := tour[j]
					b := at(j + 1)
					insCost := cs.Dist(s0, a) + cs.Dist(s1, b) - elen[j]
					if delta := insCost - removeGain; delta < bestDelta {
						bestJ, bestDelta = j, delta
					}
				}
				if bestJ < 0 {
					continue
				}
				tour = relocate(tour, i, segLen, bestJ)
				reindex()
				improved = true
				moves++
			}
		}
		if !improved {
			break
		}
	}
	for _, v := range tour {
		pos[v] = -1
	}
	return tour, moves
}

// RefineTourGrid runs the 2-opt + Or-opt polish on one tour of a Grid
// space without materializing any per-tour Dense block: a grid
// sub-index over the tour's vertices supplies both the coordinate view
// the sweeps read and the O(m·k) candidate lists that prune them. All
// buffers — the sub-index, the lists, the local tour and the sweep
// arenas — come from sc, so a pooled Scratch takes per-tour allocations
// to zero. The tour is refined in place and returned.
//
// There is no length ceiling: this replaces the former flatten-based
// path whose gridRefineCap=4096 skipped long tours entirely, which at
// n=1M meant no refinement at all. Results are bit-identical to that
// path wherever it ran (see gridopt_test.go).
func RefineTourGrid(g *metric.Grid, tour []int, maxRounds int, sc *Scratch) []int {
	m := len(tour)
	if m < 4 {
		return tour
	}
	if sc == nil {
		sc = NewScratch()
	}
	g.SubIndexInto(&sc.sub, tour)
	sc.sub.BuildLists(&sc.lists, metric.DefaultNearest)
	cs := sc.sub.Coords()
	local := sc.locals(m)
	for i := range local {
		local[i] = i
	}
	local, _ = TwoOptGrid(cs, &sc.lists, local, maxRounds, sc)
	local, _ = OrOptGrid(cs, &sc.lists, local, maxRounds, sc)
	// Map the permuted local order back onto the caller's vertex ids.
	// sc.buf is free here: only SegmentExchangeLists borrows it mid-
	// sweep, and neither grid sweep runs it.
	orig := sc.ints(m)
	copy(orig, tour)
	for i, li := range local {
		tour[i] = orig[li]
	}
	return tour
}

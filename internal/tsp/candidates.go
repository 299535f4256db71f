package tsp

import (
	"math"

	"repro/internal/metric"
)

// This file implements the Dense kernels of the local-search refiners,
// which TwoOpt/OrOpt/SegmentExchange also run. Each is the plain
// first-improvement sweep — identical scan order, identical strict-<
// tie-breaking, identical move application — that skips positions
// which provably cannot host an improving move, so the final tour and
// move count equal the full sweep's on any input. With nil lists
// nothing is skipped. The full sweeps themselves live in oracle_test.go
// as the reference the equivalence tests in candidates_test.go pin
// every kernel to.
//
// The pruning rests on two ingredients:
//
//  1. A cached edge-length array elen[i] = d(tour[i], tour[(i+1)%n]),
//     maintained incrementally across moves. Any improving move must
//     delete at least one tour edge longer than one of the edges it
//     inserts, and elen makes "is this deleted edge long enough?" a
//     single comparison.
//
//  2. metric.NearestLists: for each scan row, the positions of the few
//     vertices close enough to the row's anchor vertices are marked as
//     candidates. Decomposing a move's delta into (new edge - old edge)
//     brackets shows every improving move is either marked or caught by
//     the elen gate; the per-case arguments are spelled out at each
//     gather function. When a required search radius exceeds the
//     truncated list's completeness radius (metric.NearestLists.Radius)
//     the row falls back to the plain full scan — exactness never
//     depends on k.
//
// Classical implementations add "don't-look bits" on top; those are
// deliberately omitted because they change which rows are scanned after
// a move and therefore which local optimum is reached — breaking the
// bit-identical contract this codebase holds every fast path to (see
// DESIGN.md). The elen gate recovers most of the same savings exactly.

const (
	// autoListMinTour is the smallest tour for which the public
	// entry points build a throwaway candidate list on their own: below
	// it the O(n²) build costs more than the pruning saves.
	autoListMinTour = 64
	// autoListMaxSpaceFactor caps how much larger than the tour the
	// space may be for auto-build: the build scans every *space* row,
	// so a small tour in a huge space must not pay O(N²).
	autoListMaxSpaceFactor = 4
)

// noLists stands in for nil lists in the Or-opt kernels: an empty list
// (no neighbors, Radius 0) marks no position, and its gate threshold
// Radius(s0) - removeGain is negative, below every edge length, so every
// position is evaluated. Substituting it keeps nil out of the list
// path's loop; branching on nil around the gather instead measured
// 10–16% slower on OrOptLists (register shuffles on the loop's skip
// path). Read-only.
var noLists metric.NearestLists

// AutoLists is the public entry points' list policy: it builds private
// candidate lists over d for a tour (or solution) visiting tourLen
// vertices when the instance is large enough to amortize the build, and
// returns nil — every position examined — otherwise. Callers that
// refine many tours over one space should build shared lists once
// (metric.Dense.NearestLists) and call the *Lists kernels.
func AutoLists(d metric.Dense, tourLen int) *metric.NearestLists {
	if tourLen < autoListMinTour || d.Len() > autoListMaxSpaceFactor*tourLen {
		return nil
	}
	return d.NearestLists(metric.DefaultNearest)
}

// TwoOptLists is TwoOpt over a Dense space with shared candidate lists
// and an optional scratch arena. nl must have been built from d (lists
// from another space are a caller bug); nil nl examines every position
// in the same loop, and a nil sc allocates privately. Whatever the
// lists, the moves are those of the plain first-improvement sweep.
func TwoOptLists(d metric.Dense, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	if n < 4 {
		return tour, 0
	}
	if sc == nil {
		sc = NewScratch()
	}
	pos := sc.positions(d.Len())
	elen := sc.edges(n)
	for idx, v := range tour {
		pos[v] = int32(idx)
		elen[idx] = d.Dist(v, tour[(idx+1)%n])
	}
	moves := 0
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-1; i++ {
			a := tour[i]
			arow := d.Row(a)
			jStart := i + 2
			full := nl == nil
			for jStart < n {
				b := tour[i+1]
				dab := elen[i]
				brow := d.Row(b)
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
						// Exactness: removing edges (a,b),(c,d) for
						// (a,c),(b,d) improves only if d(a,c) < d(c,d)
						// or d(b,d) < d(a,b). With d(c,d) = elen[j] <=
						// dab both cases put a list vertex strictly
						// within radius dab of a or b, i.e. j is marked.
						if (ci == len(cand) || int(cand[ci]) != j) && elen[j] <= dab {
							continue
						}
					}
					if i == 0 && j == n-1 {
						continue // would reverse the whole tour
					}
					c, dv := tour[j], tour[(j+1)%n]
					delta := arow[c] + brow[dv] - dab - elen[j]
					if delta < -eps {
						reverseSegment(d, tour, pos, elen, i, j)
						moves++
						improved = true
						if full {
							// The plain sweep keeps scanning the same
							// row after a move; mirror it in place.
							b = tour[i+1]
							dab = elen[i]
							brow = d.Row(b)
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

// gatherTwoOpt marks the sorted j-positions whose 2-opt move against
// row (a,b) could improve: positions of a's list vertices within dab
// (they appear as c = tour[j]) and predecessors of b's list vertices
// within dab (they appear as d = tour[j+1], so the mark is pos-1,
// wrapping n-1 for pos 0).
func (sc *Scratch) gatherTwoOpt(nl *metric.NearestLists, pos []int32, a, b, jStart, n int, dab float64) []int32 {
	cand := sc.cand[:0]
	ids, ds := nl.Neighbors(a)
	for t := range ids {
		if ds[t] >= dab {
			break
		}
		if p := pos[ids[t]]; int(p) >= jStart {
			cand = append(cand, p)
		}
	}
	ids, ds = nl.Neighbors(b)
	for t := range ids {
		if ds[t] >= dab {
			break
		}
		if p := pos[ids[t]]; p >= 0 {
			j := int(p) - 1
			if j < 0 {
				j = n - 1
			}
			if j >= jStart {
				cand = append(cand, int32(j))
			}
		}
	}
	sortInt32(cand)
	sc.cand = cand
	return cand
}

// reverseSegment reverses tour[i+1..j] in place, maintaining pos and
// elen: interior edge lengths mirror around the segment center, and
// only the two boundary edges change value.
func reverseSegment(d metric.Dense, tour []int, pos []int32, elen []float64, i, j int) {
	for l, r := i+1, j; l < r; l, r = l+1, r-1 {
		tour[l], tour[r] = tour[r], tour[l]
		pos[tour[l]] = int32(l)
		pos[tour[r]] = int32(r)
	}
	for l, r := i+1, j-1; l < r; l, r = l+1, r-1 {
		elen[l], elen[r] = elen[r], elen[l]
	}
	elen[i] = d.Dist(tour[i], tour[i+1])
	elen[j] = d.Dist(tour[j], tour[(j+1)%len(tour)])
}

// OrOptLists is OrOpt with shared candidate lists; same contracts as
// TwoOptLists.
func OrOptLists(d metric.Dense, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int) {
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
	pos := sc.positions(d.Len())
	elen := sc.edges(n)
	reindex := func() {
		for idx, v := range tour {
			pos[v] = int32(idx)
			elen[idx] = d.Dist(v, tour[(idx+1)%n])
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
				removeGain := d.Dist(p0, s0) + d.Dist(s1, p1) - d.Dist(p0, p1)
				if removeGain <= eps {
					continue
				}
				s0row, s1row := d.Row(s0), d.Row(s1)
				// Exactness: inserting the segment after position j
				// improves only if insCost = d(a,s0) + d(s1,b) - elen[j]
				// < removeGain, which forces d(s0,a) < removeGain +
				// elen[j] (distances are non-negative). If additionally
				// elen[j] < theta, that bound is below Radius(s0), so a
				// is in s0's complete neighborhood and j gets marked by
				// the exact per-candidate test below. Unmarked positions
				// with elen[j] >= theta are evaluated normally.
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
					insCost := s0row[a] + s1row[b] - elen[j]
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

// SegmentExchangeLists is SegmentExchange with shared candidate lists;
// same contracts as TwoOptLists.
func SegmentExchangeLists(d metric.Dense, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int) {
	const eps = 1e-9
	n := len(tour)
	if n < 5 {
		return tour, 0
	}
	if sc == nil {
		sc = NewScratch()
	}
	pos := sc.positions(d.Len())
	elen := sc.edges(n)
	for idx, v := range tour {
		pos[v] = int32(idx)
		elen[idx] = d.Dist(v, tour[(idx+1)%n])
	}
	moves := 0
	for round := 0; maxRounds < 0 || round < maxRounds; round++ {
		improved := false
		for i := 0; i < n-3; i++ {
			a := tour[i]
			arow := d.Row(a)
			for j := i + 1; j < n-2; j++ {
				kStart := j + 1
				full := nl == nil
				for kStart < n {
					b := tour[i+1]
					dab := elen[i]
					c, dv := tour[j], tour[j+1]
					dcd := elen[j]
					dad := arow[dv]
					brow, crow := d.Row(b), d.Row(c)
					if !full && (dab > nl.Radius(b) || dcd > nl.Radius(c)) {
						full = true
					}
					var cand []int32
					ci := 0
					if !full {
						cand = sc.gatherExchange(nl, pos, b, c, kStart, n, dab, dcd)
					}
					moved := false
					for k := kStart; k < n; k++ {
						if !full {
							for ci < len(cand) && int(cand[ci]) < k {
								ci++
							}
							// Exactness: delta = (d(a,d) - d(e,f)) +
							// (d(e,b) - d(a,b)) + (d(c,f) - d(c,d)); an
							// improving k makes some bracket negative.
							// elen[k] = d(e,f) <= dad kills the first;
							// the other two put e within dab of b or f
							// within dcd of c — both marked.
							if (ci == len(cand) || int(cand[ci]) != k) && elen[k] <= dad {
								continue
							}
						}
						if i == 0 && k == n-1 {
							continue // wraps the whole tour
						}
						e := tour[k]
						f := tour[(k+1)%n]
						delta := dad + brow[e] + crow[f] - dab - dcd - elen[k]
						if delta < -eps {
							exchangeInPlace(d, sc, tour, pos, elen, i, j, k)
							moves++
							improved = true
							// Positions and row anchors shifted; re-enter
							// with fresh values, like the plain sweep's
							// post-move refresh.
							kStart = k + 1
							moved = true
							break
						}
					}
					if !moved {
						break
					}
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

// gatherExchange marks the sorted k-positions whose segment-exchange
// move against rows (i, j) could improve: positions of b's list
// vertices within dab (they appear as e = tour[k]) and predecessors of
// c's list vertices within dcd (they appear as f = tour[(k+1)%n]).
func (sc *Scratch) gatherExchange(nl *metric.NearestLists, pos []int32, b, c, kStart, n int, dab, dcd float64) []int32 {
	cand := sc.cand[:0]
	ids, ds := nl.Neighbors(b)
	for t := range ids {
		if ds[t] >= dab {
			break
		}
		if p := pos[ids[t]]; int(p) >= kStart {
			cand = append(cand, p)
		}
	}
	ids, ds = nl.Neighbors(c)
	for t := range ids {
		if ds[t] >= dcd {
			break
		}
		if p := pos[ids[t]]; p >= 0 {
			k := int(p) - 1
			if k < 0 {
				k = n - 1
			}
			if k >= kStart {
				cand = append(cand, int32(k))
			}
		}
	}
	sortInt32(cand)
	sc.cand = cand
	return cand
}

// exchangeInPlace rewrites tour[i+1..k] as C + B (the segment-exchange
// move) without allocating, then repairs pos and elen over the touched
// range; positions outside [i, k] are unaffected.
func exchangeInPlace(d metric.Dense, sc *Scratch, tour []int, pos []int32, elen []float64, i, j, k int) {
	n := len(tour)
	buf := sc.ints(k - i)
	copy(buf[:k-j], tour[j+1:k+1])
	copy(buf[k-j:], tour[i+1:j+1])
	copy(tour[i+1:k+1], buf)
	for l := i + 1; l <= k; l++ {
		pos[tour[l]] = int32(l)
	}
	for l := i; l <= k; l++ {
		elen[l] = d.Dist(tour[l], tour[(l+1)%n])
	}
}

// InsertionPoint returns the position (1..len(verts)) at which
// inserting s into the closed tour verts increases its length least,
// together with that increase: the argmin over i of
// d(s, verts[i]) + d(s, verts[i+1]) - d(verts[i], verts[i+1]), first
// minimum winning, exactly like a plain linear scan. With candidate
// lists, positions where neither endpoint is in s's list are skipped
// once the incumbent beats Radius(s) - elen[i] — a valid lower bound on
// their delta by distance non-negativity alone — so the result is
// bit-identical to the full scan. nl == nil always runs the full scan.
func InsertionPoint(d metric.Dense, nl *metric.NearestLists, verts []int, s int, sc *Scratch) (int, float64) {
	n := len(verts)
	srow := d.Row(s)
	bestPos, bestDelta := n, math.Inf(1)
	if nl == nil || n < 4 {
		for i := 0; i < n; i++ {
			a, b := verts[i], verts[(i+1)%n]
			if delta := srow[a] + srow[b] - d.Dist(a, b); delta < bestDelta {
				bestPos, bestDelta = i+1, delta
			}
		}
		return bestPos, bestDelta
	}
	if sc == nil {
		sc = NewScratch()
	}
	pos := sc.positions(d.Len())
	elen := sc.edges(n)
	for i, v := range verts {
		pos[v] = int32(i)
		elen[i] = d.Dist(v, verts[(i+1)%n])
	}
	cand := sc.cand[:0]
	ids, _ := nl.Neighbors(s)
	for _, id := range ids {
		if p := pos[id]; p >= 0 {
			cand = append(cand, p)
			k := int(p) - 1
			if k < 0 {
				k = n - 1
			}
			cand = append(cand, int32(k))
		}
	}
	sortInt32(cand)
	sc.cand = cand
	rad := nl.Radius(s)
	ci := 0
	for i := 0; i < n; i++ {
		for ci < len(cand) && int(cand[ci]) < i {
			ci++
		}
		if (ci == len(cand) || int(cand[ci]) != i) && rad-elen[i] >= bestDelta {
			// Unmarked: both endpoints are outside s's list, so their
			// distance to s is at least rad and delta >= rad - elen[i].
			continue
		}
		a, b := verts[i], verts[(i+1)%n]
		if delta := srow[a] + srow[b] - elen[i]; delta < bestDelta {
			bestPos, bestDelta = i+1, delta
		}
	}
	for _, v := range verts {
		pos[v] = -1
	}
	return bestPos, bestDelta
}

// sortInt32 sorts the (short) candidate buffer ascending; insertion
// sort beats sort.Slice at these sizes and allocates nothing.
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

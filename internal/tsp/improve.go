package tsp

import "repro/internal/metric"

// TwoOpt improves tour in place by repeatedly reversing segments while an
// improving move exists, preserving tour[0] as the fixed starting vertex
// (the depot of a charging tour must stay first). maxRounds bounds the
// number of full improvement sweeps; pass a negative value for "until
// convergence". It returns the improved tour and the number of improving
// moves applied.
//
// Complexity is O(n^2) per sweep. eps guards against endless loops on
// floating-point noise.
//
// The sweep is TwoOptLists: over sp itself when sp is a metric.Dense,
// otherwise over the tour's vertices flattened into a local Dense
// (O(m²) memory for an m-vertex tour). Candidate lists are built
// privately when the instance is large enough to amortize them
// (AutoLists); either way the moves are those of the plain
// first-improvement sweep.
func TwoOpt(sp metric.Space, tour []int, maxRounds int) ([]int, int) {
	return onDense(sp, tour, maxRounds, TwoOptLists)
}

// OrOpt improves tour in place by relocating chains of 1, 2 or 3
// consecutive vertices to a better position, preserving tour[0]. It
// complements TwoOpt: segment reversal cannot express single-vertex
// relocation cheaply. Returns the tour and the number of moves applied.
// Like TwoOpt it runs the Dense list kernel, OrOptLists.
func OrOpt(sp metric.Space, tour []int, maxRounds int) ([]int, int) {
	return onDense(sp, tour, maxRounds, OrOptLists)
}

// onDense runs a Dense list kernel on tour. A Dense sp is refined in
// place; any other space is flattened over the tour's vertices — grid-
// scale callers use RefineTourGrid instead, which needs no O(m²) block —
// and the refined local order is mapped back onto tour. Flattening
// copies sp's distances bit for bit, so the moves are the same on both
// paths.
func onDense(sp metric.Space, tour []int, maxRounds int,
	kernel func(metric.Dense, *metric.NearestLists, []int, int, *Scratch) ([]int, int)) ([]int, int) {
	if d, ok := metric.AsDense(sp); ok {
		return kernel(d, AutoLists(d, len(tour)), tour, maxRounds, nil)
	}
	d := metric.NewSub(sp, tour).Flatten()
	local := make([]int, len(tour))
	for i := range local {
		local[i] = i
	}
	local, moves := kernel(d, AutoLists(d, len(local)), local, maxRounds, nil)
	orig := append([]int(nil), tour...)
	for i, li := range local {
		tour[i] = orig[li]
	}
	return tour, moves
}

// relocate moves the segment tour[i:i+segLen] so it follows the vertex
// currently at index j (j outside the segment and not i-1), in place:
// the gap between the segment and its target shifts over, the segment
// drops in behind the target, and nothing is allocated (segLen <= 3).
func relocate(tour []int, i, segLen, j int) []int {
	var seg [3]int
	copy(seg[:segLen], tour[i:i+segLen])
	if j > i {
		copy(tour[i:], tour[i+segLen:j+1])
		copy(tour[j-segLen+1:j+1], seg[:segLen])
	} else {
		copy(tour[j+1+segLen:i+segLen], tour[j+1:i])
		copy(tour[j+1:j+1+segLen], seg[:segLen])
	}
	return tour
}

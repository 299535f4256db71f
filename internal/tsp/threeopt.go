package tsp

import "repro/internal/metric"

// SegmentExchange applies the "pure" 3-opt move — the one reconnection
// of three removed edges that no sequence of 2-opt reversals can
// express: segments B = tour[i+1..j] and C = tour[j+1..k] swap places
// without either being reversed (edges a-d, e-b, c-f replace a-b, c-d,
// e-f). Combined with TwoOpt it yields a full 3-opt neighbourhood.
//
// tour[0] is preserved. maxRounds bounds sweeps (negative = until
// convergence); each sweep is O(n^3), so this is the deep, opt-in
// refiner — the routine Refine option uses 2-opt/Or-opt only.
// It returns the tour and the number of moves applied.
// Like TwoOpt it runs the Dense list kernel, SegmentExchangeLists.
func SegmentExchange(sp metric.Space, tour []int, maxRounds int) ([]int, int) {
	return onDense(sp, tour, maxRounds, SegmentExchangeLists)
}

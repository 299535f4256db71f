// Package hotdist seeds the hotdist analyzer fixture: metric.Space.Dist
// interface calls inside loops versus the out-of-loop and closure cases.
package hotdist

import (
	"math"

	"repro/internal/metric"
)

// Total dispatches through the interface once per inner iteration — the
// pattern the Dense row fast path exists to remove.
func Total(sp metric.Space) float64 {
	var sum float64
	for i := 0; i < sp.Len(); i++ {
		for j := 0; j < sp.Len(); j++ {
			sum += sp.Dist(i, j) // want:hotdist
		}
	}
	return sum
}

// One calls Dist outside any loop; not flagged.
func One(sp metric.Space) float64 {
	return sp.Dist(0, 1)
}

// Closure defines a func literal inside a loop; the literal's body runs
// per call, not per iteration, so the Dist inside it is not flagged.
func Closure(sp metric.Space) []func() float64 {
	var fs []func() float64
	for i := 0; i < sp.Len(); i++ {
		i := i
		fs = append(fs, func() float64 { return sp.Dist(i, 0) })
	}
	return fs
}

// Allowed is the suppressed fallback twin.
//
//lint:allow hotdist fixture: deliberate non-Dense fallback
func Allowed(sp metric.Space) float64 {
	var sum float64
	for i := 1; i < sp.Len(); i++ {
		sum += sp.Dist(i-1, i)
	}
	return sum
}

// RingScan mimics a spatial-index ring expansion that falls back to the
// interface for its candidate distances — the regression the grid
// kernels must never reintroduce: a query loop nested in a cell loop,
// dispatching per candidate.
func RingScan(sp metric.Space, rings [][]int) float64 {
	best := math.Inf(1)
	for _, ring := range rings {
		for _, u := range ring {
			if d := sp.Dist(0, u); d < best { // want:hotdist
				best = d
			}
		}
	}
	return best
}

// GenericTotal pays the same dispatch through a type parameter: the
// call goes through the instantiation's dictionary, so even S = Dense
// does not inline Dense.Dist.
func GenericTotal[S metric.Space](sp S) float64 {
	var sum float64
	for i := 1; i < sp.Len(); i++ {
		sum += sp.Dist(i-1, i) // want:hotdist
	}
	return sum
}

// rowSpace embeds metric.Space in a wider constraint.
type rowSpace interface {
	metric.Space
	Row(i int) []float64
}

// EmbeddedConstraint is flagged too: its constraint embeds metric.Space.
func EmbeddedConstraint[S rowSpace](sp S) float64 {
	var sum float64
	for i := 1; i < sp.Len(); i++ {
		sum += sp.Dist(i-1, i) // want:hotdist
	}
	return sum
}

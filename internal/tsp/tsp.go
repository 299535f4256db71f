// Package tsp is the travelling-salesman toolkit used by the charger
// scheduling algorithms.
//
// The paper's Algorithm 2 converts each tree of a q-rooted minimum
// spanning forest into a closed tour by doubling its edges, extracting an
// Euler circuit and shortcutting repeats (package rooted). This package
// supplies what that construction and the ablation experiments build on:
// the nearest-neighbour constructor, the local-search improvers (2-opt,
// Or-opt) with their candidate-list and on-grid kernels, Christofides,
// and an exact Held–Karp solver for the tiny instances the test suite
// uses to measure empirical approximation ratios.
//
// A tour is a []int of distinct vertex indices into a metric.Space; the
// closing edge from the last vertex back to the first is implicit.
package tsp

import "repro/internal/metric"

// Cost returns the length of the closed tour (the implicit closing edge
// included). A tour with fewer than two vertices has cost 0.
//
//lint:allow hotdist one Dist per tour edge; a type-parameter instantiation over Dense measured at interface speed on Go 1.24, so a Dense twin buys nothing here
func Cost(sp metric.Space, tour []int) float64 {
	if len(tour) < 2 {
		return 0
	}
	var sum float64
	for i := 1; i < len(tour); i++ {
		sum += sp.Dist(tour[i-1], tour[i])
	}
	return sum + sp.Dist(tour[len(tour)-1], tour[0])
}

// NearestNeighbor builds a tour greedily from start, always travelling to
// the closest unvisited vertex. O(n^2). No worst-case guarantee, but a
// strong practical constructor; the ablation benches compare it against
// the paper's double-tree construction.
//
//lint:allow hotdist ablation constructor with zero calls on every benchmark workload; a type-parameter Dense instantiation measured no faster than this interface call
func NearestNeighbor(sp metric.Space, start int) []int {
	n := sp.Len()
	if n == 0 {
		return nil
	}
	visited := make([]bool, n)
	tour := make([]int, 0, n)
	cur := start
	visited[cur] = true
	tour = append(tour, cur)
	for len(tour) < n {
		next, best := -1, 0.0
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			if d := sp.Dist(cur, v); next == -1 || d < best {
				next, best = v, d
			}
		}
		visited[next] = true
		tour = append(tour, next)
		cur = next
	}
	return tour
}

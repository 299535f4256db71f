// Package tsp is the travelling-salesman toolkit used by the charger
// scheduling algorithms.
//
// The paper's Algorithm 2 converts each tree of a q-rooted minimum
// spanning forest into a closed tour by doubling its edges, extracting an
// Euler circuit and shortcutting repeats — the classic double-tree
// 2-approximation. That construction is implemented here, alongside the
// standard constructive heuristics (nearest neighbour, cheapest insertion)
// and local-search improvers (2-opt, Or-opt) used by the ablation
// experiments, plus an exact Held–Karp solver for the tiny instances the
// test suite uses to measure empirical approximation ratios.
//
// A tour is a []int of distinct vertex indices into a metric.Space; the
// closing edge from the last vertex back to the first is implicit.
package tsp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metric"
)

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

// Validate checks that tour visits each of the vertices in want exactly
// once (and nothing else). A nil want means "all vertices of sp".
//
//lint:allow hotalloc validation-only: allocates a scratch set once and errors only on rejected tours
func Validate(sp metric.Space, tour []int, want []int) error {
	if want == nil {
		want = make([]int, sp.Len())
		for i := range want {
			want[i] = i
		}
	}
	if len(tour) != len(want) {
		return fmt.Errorf("tsp: tour has %d vertices, want %d", len(tour), len(want))
	}
	seen := make(map[int]bool, len(tour))
	for _, v := range tour {
		if v < 0 || v >= sp.Len() {
			return fmt.Errorf("tsp: vertex %d out of range [0,%d)", v, sp.Len())
		}
		if seen[v] {
			return fmt.Errorf("tsp: vertex %d visited twice", v)
		}
		seen[v] = true
	}
	for _, v := range want {
		if !seen[v] {
			return fmt.Errorf("tsp: vertex %d not visited", v)
		}
	}
	return nil
}

// DoubleTree builds a closed tour from a spanning tree of sp by the
// double-tree construction: double every tree edge, take an Euler circuit
// from root, shortcut repeated vertices. Under the triangle inequality
// the result costs at most twice the tree weight, hence at most twice the
// optimal tour (Theorem 1 of the paper). The returned tour starts at root.
//
//lint:allow hotdist one Dist per tree edge; rooted.tourFromTree supplies the production path
func DoubleTree(sp metric.Space, tree graph.Tree, root int) []int {
	// Doubling the tree edges makes every degree even, so an Euler
	// circuit exists; the shortcut pass keeps first occurrences only.
	var doubled []graph.Edge
	for v, p := range tree.Parent {
		if p >= 0 {
			e := graph.Edge{U: v, V: p, W: sp.Dist(v, p)}
			doubled = append(doubled, e, e)
		}
	}
	walk, err := graph.EulerCircuit(len(tree.Parent), doubled, root)
	if err != nil {
		// A doubled spanning tree is always connected and even; an
		// error here means the tree was malformed, which is a
		// programming error, not an input condition.
		panic("tsp: DoubleTree on malformed tree: " + err.Error())
	}
	return graph.Shortcut(walk)
}

// MSTTour computes a minimum spanning tree of sp rooted at root and
// returns its double-tree tour: the end-to-end 2-approximate TSP used when
// q = 1.
func MSTTour(sp metric.Space, root int) []int {
	if sp.Len() == 0 {
		return nil
	}
	return DoubleTree(sp, graph.PrimMST(sp, root), root)
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

// CheapestInsertion grows a tour from start by repeatedly inserting the
// unvisited vertex whose best insertion position increases the tour length
// the least. O(n^2) with incremental bookkeeping. Returns a tour starting
// at start.
//
//lint:allow hotdist ablation constructor with zero calls on every benchmark workload; a type-parameter Dense instantiation measured no faster than this interface call
func CheapestInsertion(sp metric.Space, start int) []int {
	n := sp.Len()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{start}
	}
	inTour := make([]bool, n)
	tour := []int{start}
	inTour[start] = true
	for len(tour) < n {
		bestV, bestPos, bestDelta := -1, -1, 0.0
		for v := 0; v < n; v++ {
			if inTour[v] {
				continue
			}
			for i := 0; i < len(tour); i++ {
				a := tour[i]
				b := tour[(i+1)%len(tour)]
				delta := sp.Dist(a, v) + sp.Dist(v, b) - sp.Dist(a, b)
				if bestV == -1 || delta < bestDelta {
					bestV, bestPos, bestDelta = v, i+1, delta
				}
			}
		}
		tour = append(tour, 0)
		copy(tour[bestPos+1:], tour[bestPos:])
		tour[bestPos] = bestV
		inTour[bestV] = true
	}
	// Rotation keeps start first (insertion can only place vertices
	// after position 0, so start already is; assert cheaply).
	if tour[0] != start {
		panic("tsp: CheapestInsertion lost its start vertex")
	}
	return tour
}

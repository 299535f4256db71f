// Package graph implements the graph algorithms underlying the charger
// scheduling library: Euler circuits on multigraphs (Hierholzer) with
// the shortcut pass that turns them into tours, the union-find of the
// Borůvka MSF, and the Tree and Edge types that packages rooted and tsp
// exchange.
//
// The q-rooted MSF of the paper (its Algorithm 1) reduces to a single MST
// on a depot-contracted graph; package rooted computes that MST with its
// own two kernels, a fringe Prim over a metric.Dense and Borůvka rounds
// over a metric.Grid. PrimMST here is the plain O(n²) Prim that the
// fringe Prim is tested against.
package graph

import (
	"fmt"
	"math"

	"repro/internal/metric"
)

// Edge is an undirected weighted edge between vertex indices U and V.
type Edge struct {
	U, V int
	W    float64
}

// Tree is a spanning tree (or forest component) given by a parent array:
// Parent[i] is the tree parent of vertex i, or -1 for the root. Weight is
// the sum of all parent-edge weights.
type Tree struct {
	Parent []int
	Weight float64
}

// PrimMST computes a minimum spanning tree of the complete graph induced
// by sp, rooted at root, in O(n^2) time and O(n) extra space (the bound
// the paper's Lemma 1 relies on). Each step joins the lowest-index
// vertex at minimum distance, and every comparison is strict. It is the
// reference that package rooted's fringe Prim is held to, bit for bit,
// and the tree builder of the graph and tsp tests.
//
// It panics if sp is empty or root is out of range.
func PrimMST(sp metric.Space, root int) Tree {
	n := sp.Len()
	if n == 0 {
		panic("graph: PrimMST on empty space")
	}
	if root < 0 || root >= n {
		panic(fmt.Sprintf("graph: PrimMST root %d out of range [0,%d)", root, n))
	}
	const unvisited = -1
	parent := make([]int, n)
	best := make([]float64, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = unvisited
		best[i] = math.Inf(1)
	}
	best[root] = 0
	parent[root] = -1
	var total float64
	for iter := 0; iter < n; iter++ {
		// Pick the cheapest fringe vertex.
		u, bw := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < bw {
				u, bw = v, best[v]
			}
		}
		if u == -1 {
			// Disconnected input can only happen with infinite
			// distances; metric spaces here are complete.
			panic("graph: PrimMST on disconnected space")
		}
		inTree[u] = true
		total += bw
		for v := 0; v < n; v++ {
			if !inTree[v] {
				if d := sp.Dist(u, v); d < best[v] {
					best[v] = d
					parent[v] = u
				}
			}
		}
	}
	return Tree{Parent: parent, Weight: total}
}

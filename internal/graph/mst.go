// Package graph implements the graph algorithms underlying the charger
// scheduling library: minimum spanning trees on dense metric spaces
// (Prim), Euler circuits on multigraphs (Hierholzer) with the shortcut
// pass that turns them into tours, and the union-find of the Borůvka MSF.
//
// The q-rooted MSF of the paper (its Algorithm 1) reduces to a single MST
// on a depot-contracted graph; both the contraction and the MST live here
// and in package rooted.
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
// by sp, rooted at root, in O(n^2) time and O(n) extra space — the right
// complexity class for the dense Euclidean instances this library solves
// (the paper's Lemma 1 relies on exactly this bound).
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
	dense, isDense := metric.AsDense(sp)
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
		if isDense {
			// Devirtualized scan: one contiguous row, plain indexing.
			row := dense.Row(u)
			for v := 0; v < n; v++ {
				if !inTree[v] && row[v] < best[v] {
					best[v] = row[v]
					parent[v] = u
				}
			}
			continue
		}
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

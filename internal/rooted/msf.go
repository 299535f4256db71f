// Package rooted implements the rooted optimization problems at the core
// of the paper: the exact q-rooted Minimum Spanning Forest algorithm
// (Algorithm 1) and the 2-approximate q-rooted TSP algorithm
// (Algorithm 2).
//
// Given a metric space containing q depot vertices and a set of sensor
// vertices, the q-rooted MSF problem asks for q vertex-disjoint trees that
// together span all sensors, each tree containing a distinct depot, with
// minimum total edge weight. The q-rooted TSP problem asks instead for q
// closed tours with the same coverage/rooting constraints and minimum
// total length. The MSF is solvable exactly by contracting all depots
// into a single super-root, computing one MST, and un-contracting
// (Lemma 1 of the paper); its weight lower-bounds the optimal tour set,
// and doubling each tree yields tours within twice the optimum
// (Theorem 1).
package rooted

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/metric"
)

// NotInForest marks vertices of the ambient space that take no part in a
// Forest (they were neither depots nor requested sensors).
const NotInForest = -2

// Forest is a q-rooted spanning forest over a metric space. Parent has
// one entry per vertex of the ambient space: Parent[d] == -1 for each
// depot d, Parent[v] is the tree parent for each spanned sensor v, and
// Parent[u] == NotInForest for uninvolved vertices. Weight is the total
// edge weight.
type Forest struct {
	Parent []int
	Depots []int
	Weight float64
}

// TreeOf returns the vertices of the tree rooted at depot in preorder
// (depot first). It returns just {depot} for an empty tree and nil if
// depot is not a root of f.
func (f Forest) TreeOf(depot int) []int {
	off, kids := f.childrenCSR()
	members, _ := f.treeFrom(off, kids, depot)
	return members
}

// childrenCSR builds the forest's child lists as one flat CSR pair:
// vertex v's children are kids[off[v]:off[v+1]], in increasing index
// order — the same order per-vertex appends over Parent would produce.
// ToursFromForest builds it once and walks every depot's tree from it
// instead of rebuilding a per-depot map. int32 entries suffice (the
// serve-layer index budget caps the ambient space) and halve the CSR's
// footprint at million-sensor scale.
func (f Forest) childrenCSR() (off, kids []int32) {
	n := len(f.Parent)
	off = make([]int32, n+1)
	for _, p := range f.Parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	kids = make([]int32, off[n])
	cur := make([]int32, n)
	copy(cur, off[:n])
	for v, p := range f.Parent {
		if p >= 0 {
			kids[cur[p]] = int32(v)
			cur[p]++
		}
	}
	return off, kids
}

// treeFrom is TreeOf over a prebuilt childrenCSR. Alongside the member
// list it returns the tree's parent pointers in component-local index
// space: lparent[li] is the position in members of members[li]'s parent
// (-1 for the depot). tourFromTree walks the doubled tree over these
// local indices so the Euler machinery sizes its arrays by the tour,
// not the whole space — per-call O(sp.Len()) setup at a million sensors
// was the last super-linear cost on the tour-construction path.
func (f Forest) treeFrom(off, kids []int32, depot int) (members []int, lparent []int32) {
	if depot < 0 || depot >= len(f.Parent) || f.Parent[depot] != -1 {
		return nil, nil
	}
	type frame struct{ v, p int32 }
	stack := []frame{{int32(depot), -1}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		li := int32(len(members))
		members = append(members, int(fr.v))
		lparent = append(lparent, fr.p)
		// Push in reverse so smaller-indexed children come out first;
		// deterministic order keeps golden tests stable.
		for i := off[fr.v+1] - 1; i >= off[fr.v]; i-- {
			stack = append(stack, frame{kids[i], li})
		}
	}
	return members, lparent
}

// Validate checks the structural invariants of f against the given depot
// and sensor sets: every depot is a point of sp and a root, every sensor
// has a parent chain terminating at exactly one depot, no cycles, and
// Weight matches the sum of parent edges under sp.
//
//lint:allow hotdist validation path, one Dist per sensor, off the hot path
func (f Forest) Validate(sp metric.Space, depots, sensors []int) error {
	if len(f.Parent) != sp.Len() {
		return fmt.Errorf("rooted: parent array has %d entries, space has %d", len(f.Parent), sp.Len())
	}
	isDepot := make(map[int]bool, len(depots))
	for _, d := range depots {
		if d < 0 || d >= len(f.Parent) {
			return depotRangeErr(d, len(f.Parent))
		}
		isDepot[d] = true
		if f.Parent[d] != -1 {
			return fmt.Errorf("rooted: depot %d has parent %d, want -1", d, f.Parent[d])
		}
	}
	var weight float64
	for _, s := range sensors {
		// Walk to a root, guarding against cycles.
		v := s
		for steps := 0; ; steps++ {
			if steps > len(f.Parent) {
				return fmt.Errorf("rooted: cycle reached from sensor %d", s)
			}
			p := f.Parent[v]
			if p == -1 {
				if !isDepot[v] {
					return fmt.Errorf("rooted: sensor %d reaches root %d which is not a depot", s, v)
				}
				break
			}
			if p == NotInForest || p < 0 || p >= len(f.Parent) {
				return fmt.Errorf("rooted: sensor %d has invalid ancestor parent %d", s, p)
			}
			v = p
		}
		weight += sp.Dist(s, f.Parent[s])
	}
	if math.Abs(weight-f.Weight) > 1e-6*(1+math.Abs(weight)) {
		return fmt.Errorf("rooted: recorded weight %g != recomputed %g", f.Weight, weight)
	}
	return nil
}

// depotRangeErr keeps Validate's out-of-space depot error construction
// out of its per-depot loop.
func depotRangeErr(depot, n int) error {
	return fmt.Errorf("rooted: depot %d out of range [0,%d)", depot, n)
}

// MSF computes an exact minimum q-rooted spanning forest of the sensors
// over sp, one tree per depot (Algorithm 1 of the paper): the depots are
// contracted into a super-root, a single MST is computed by Prim's
// algorithm in O((|sensors|+q)^2), and the MST is un-contracted by mapping
// each root edge back to the depot that realized its weight.
//
// When sp is a metric.Grid (no Dense matrix available), the contracted
// MST is computed by msfBoruvka instead — exact Borůvka rounds over the
// grid's spatial index, sub-quadratic on uniform inputs — so large
// instances never pay Prim's O(n²) scan or the O(n²) matrix it wants.
//
// Depots and sensors must be disjoint non-empty/empty index sets into sp;
// MSF panics on overlapping sets or an empty depot list, since those are
// caller bugs rather than data conditions.
func MSF(sp metric.Space, depots, sensors []int) Forest {
	return msf(sp, depots, sensors, 1)
}

// msf is MSF with a worker budget for the Borůvka grid path; the forest
// is byte-identical for every workers value (see msfBoruvka). Tours
// passes Options.Workers through here so large grid plans parallelize
// the MSF too, not just the per-depot tour builds.
func msf(sp metric.Space, depots, sensors []int, workers int) Forest {
	if len(depots) == 0 {
		panic("rooted: MSF requires at least one depot")
	}
	seen := make([]bool, sp.Len())
	for _, d := range depots {
		if seen[d] {
			panic(fmt.Sprintf("rooted: duplicate depot %d", d))
		}
		seen[d] = true
	}
	for _, s := range sensors {
		if seen[s] {
			panic(fmt.Sprintf("rooted: sensor %d duplicates a depot or sensor", s))
		}
		seen[s] = true
	}

	parent := make([]int, sp.Len())
	for i := range parent {
		parent[i] = NotInForest
	}
	for _, d := range depots {
		parent[d] = -1
	}
	if len(sensors) == 0 {
		return Forest{Parent: parent, Depots: append([]int(nil), depots...), Weight: 0}
	}

	// Contracted space: vertices 0..len(sensors)-1 are the sensors,
	// vertex len(sensors) is the super-root r. d(v, r) is the distance
	// from v to its nearest depot; nearest[v] records which depot
	// realizes it so un-contraction is a table lookup. The grid path
	// borrows both arrays (and every Borůvka buffer) from the pooled
	// arena; depot indices fit int32 by the serve-layer index budget.
	dense, isDense := metric.AsDense(sp)
	var grid *metric.Grid
	if !isDense {
		grid, _ = metric.AsGrid(sp)
	}
	var ar *msfArena
	var nearest []int32
	var toNearest []float64
	if grid != nil {
		ar = msfArenaPool.Get().(*msfArena)
		defer msfArenaPool.Put(ar)
		ar.nearest = grow(ar.nearest, len(sensors))
		ar.toRoot = grow(ar.toRoot, len(sensors))
		nearest, toNearest = ar.nearest, ar.toRoot
	} else {
		nearest = make([]int32, len(sensors))
		toNearest = make([]float64, len(sensors))
	}
	for i, s := range sensors {
		best, bd := -1, math.Inf(1)
		switch {
		case isDense:
			row := dense.Row(s)
			for _, d := range depots {
				if w := row[d]; w < bd {
					best, bd = d, w
				}
			}
		case grid != nil:
			// Concrete coordinate math, no per-distance interface
			// dispatch: O(q) per sensor, q is small.
			cs := grid.Coords()
			for _, d := range depots {
				if w := cs.Dist(s, d); w < bd {
					best, bd = d, w
				}
			}
		default:
			for _, d := range depots {
				if w := sp.Dist(s, d); w < bd { //lint:allow hotdist non-Dense fallback twin of the row loop above
					best, bd = d, w
				}
			}
		}
		nearest[i], toNearest[i] = int32(best), bd
	}
	var mst graph.Tree
	switch {
	case isDense:
		mst = primContractedDense(dense, sensors, toNearest)
	case grid != nil:
		// Sub-quadratic path: exact Borůvka MSF over the grid index, no
		// O(n²) matrix. Same tree weight as Prim (the MST is unique up
		// to equal-weight edge swaps, which are weight-neutral).
		mst = msfBoruvka(grid, sensors, ar, workers)
	default:
		c := contracted{sp: sp, sensors: sensors, toRoot: toNearest}
		mst = graph.PrimMST(c, len(sensors)) // root Prim at the super-root
	}

	for i, s := range sensors {
		p := mst.Parent[i]
		switch {
		case p == len(sensors): // edge to the super-root: un-contract
			parent[s] = int(nearest[i])
		case p >= 0:
			parent[s] = sensors[p]
		default:
			// Prim rooted at the super-root never leaves a sensor
			// unparented in a connected space.
			panic(fmt.Sprintf("rooted: sensor %d unparented by MST", s))
		}
	}
	f := Forest{Parent: parent, Depots: append([]int(nil), depots...), Weight: mst.Weight}
	if check.Enabled {
		if err := f.Validate(sp, depots, sensors); err != nil {
			panic("rooted: MSF postcondition: " + err.Error())
		}
	}
	return f
}

// primContractedDense is graph.PrimMST specialized to the depot-
// contracted space over a Dense parent: vertices 0..m-1 are sensors,
// vertex m is the super-root at toRoot distances. The fringe scan and
// tie-breaking replicate graph.PrimMST exactly — same iteration order,
// same strict comparisons — so the returned tree is bit-identical to
// the interface path; only the per-distance dispatch is gone.
func primContractedDense(d metric.Dense, sensors []int, toRoot []float64) graph.Tree {
	m := len(sensors)
	n := m + 1
	parent := make([]int, n)
	best := make([]float64, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
		best[i] = math.Inf(1)
	}
	best[m] = 0 // the super-root is the Prim root and enters first
	var total float64
	for iter := 0; iter < n; iter++ {
		u, bw := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !inTree[v] && best[v] < bw {
				u, bw = v, best[v]
			}
		}
		if u == -1 {
			panic("rooted: contracted Prim on disconnected space")
		}
		inTree[u] = true
		total += bw
		if u == m {
			for v := 0; v < m; v++ {
				if !inTree[v] && toRoot[v] < best[v] {
					best[v] = toRoot[v]
					parent[v] = m
				}
			}
			continue
		}
		row := d.Row(sensors[u])
		for v := 0; v < m; v++ {
			if !inTree[v] {
				if w := row[sensors[v]]; w < best[v] {
					best[v] = w
					parent[v] = u
				}
			}
		}
	}
	return graph.Tree{Parent: parent, Weight: total}
}

// contracted adapts (sensors ∪ {super-root}) to metric.Space.
type contracted struct {
	sp      metric.Space
	sensors []int
	toRoot  []float64
}

func (c contracted) Len() int { return len(c.sensors) + 1 }

func (c contracted) Dist(i, j int) float64 {
	r := len(c.sensors)
	switch {
	case i == r && j == r:
		return 0
	case i == r:
		return c.toRoot[j]
	case j == r:
		return c.toRoot[i]
	default:
		return c.sp.Dist(c.sensors[i], c.sensors[j])
	}
}

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
	"sync"

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
	var ar roundArena // discarded, so the members it returns are the caller's
	off, kids := f.childrenCSR(&ar)
	members, _ := f.treeFrom(off, kids, depot, &ar.tourArena)
	return members
}

// childrenCSR builds the forest's child lists as one flat CSR pair in
// ar: vertex v's children are kids[off[v]:off[v+1]], in increasing index
// order — the same order per-vertex appends over Parent would produce.
// toursFromForest builds it once and walks every depot's tree from it
// instead of rebuilding a per-depot map. int32 entries suffice (the
// serve-layer index budget caps the ambient space) and halve the CSR's
// footprint at million-sensor scale.
func (f Forest) childrenCSR(ar *roundArena) (off, kids []int32) {
	n := len(f.Parent)
	off = grow(ar.csrOff, n+1)
	clear(off)
	for _, p := range f.Parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	kids = grow(ar.csrKids, int(off[n]))
	cur := grow(ar.csrCur, n)
	copy(cur, off[:n])
	for v, p := range f.Parent {
		if p >= 0 {
			kids[cur[p]] = int32(v)
			cur[p]++
		}
	}
	ar.csrOff, ar.csrKids, ar.csrCur = off, kids, cur
	return off, kids
}

// treeFrame is one pending vertex of treeFrom's preorder walk: the
// vertex and the local index of its parent.
type treeFrame struct{ v, p int32 }

// treeFrom is TreeOf over a prebuilt childrenCSR, on ta's buffers.
// Alongside the member list it returns the tree's parent pointers in
// component-local index space: lparent[li] is the position in members
// of members[li]'s parent (-1 for the depot). tourFromTree walks the
// doubled tree over these local indices so the Euler machinery sizes its
// arrays by the tour, not the whole space — per-call O(sp.Len()) setup
// at a million sensors was the last super-linear cost on the
// tour-construction path.
func (f Forest) treeFrom(off, kids []int32, depot int, ta *tourArena) (members []int, lparent []int32) {
	if depot < 0 || depot >= len(f.Parent) || f.Parent[depot] != -1 {
		return nil, nil
	}
	stack := append(ta.stack[:0], treeFrame{int32(depot), -1})
	members, lparent = ta.members[:0], ta.lparent[:0]
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		li := int32(len(members))
		members = append(members, int(fr.v))
		lparent = append(lparent, fr.p)
		// Push in reverse so smaller-indexed children come out first;
		// deterministic order keeps golden tests stable.
		for i := off[fr.v+1] - 1; i >= off[fr.v]; i-- {
			stack = append(stack, treeFrame{kids[i], li})
		}
	}
	ta.stack, ta.members, ta.lparent = stack, members, lparent
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
			return depotParentErr(d, f.Parent[d])
		}
	}
	var weight float64
	for _, s := range sensors {
		// Walk to a root, guarding against cycles.
		v := s
		for steps := 0; ; steps++ {
			if steps > len(f.Parent) {
				return cycleErr(s)
			}
			p := f.Parent[v]
			if p == -1 {
				if !isDepot[v] {
					return foreignRootErr(s, v)
				}
				break
			}
			if p == NotInForest || p < 0 || p >= len(f.Parent) {
				return ancestorErr(s, p)
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

// Cold constructors for Validate's errors, kept out of its loops.

func depotRangeErr(depot, n int) error {
	return fmt.Errorf("rooted: depot %d out of range [0,%d)", depot, n)
}

func depotParentErr(depot, p int) error {
	return fmt.Errorf("rooted: depot %d has parent %d, want -1", depot, p)
}

func cycleErr(s int) error { return fmt.Errorf("rooted: cycle reached from sensor %d", s) }

func foreignRootErr(s, root int) error {
	return fmt.Errorf("rooted: sensor %d reaches root %d which is not a depot", s, root)
}

func ancestorErr(s, p int) error {
	return fmt.Errorf("rooted: sensor %d has invalid ancestor parent %d", s, p)
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
// A space that is neither Dense nor Grid costs an O(sp.Len()²)
// materialization into a Dense first.
//
// Depots and sensors must be disjoint non-empty/empty index sets into sp;
// MSF panics on overlapping sets or an empty depot list, since those are
// caller bugs rather than data conditions. The returned Forest owns its
// memory.
func MSF(sp metric.Space, depots, sensors []int) Forest {
	ar := roundArenaPool.Get().(*roundArena)
	f := msf(sp, depots, sensors, 1, ar)
	f.Parent = append([]int(nil), f.Parent...)
	f.Depots = append([]int(nil), f.Depots...)
	roundArenaPool.Put(ar)
	return f
}

// roundArena pools every buffer of one q-rooted round — msf's duplicate
// check, Dense copy and contracted-space inputs, the MST (Prim's fringe
// or the Borůvka rounds and the subset grid index), the un-contracted
// forest and its child lists, and, on the serial path, each tree's walk,
// Euler circuit and shortcut — so a round allocates only what it
// returns, and the K+1 prefix solutions of a plan, Greedy's rounds and
// successive chargerd requests reuse one grown allocation instead of
// churning the GC. Tours takes one per call. Arenas hold memory only (no
// results), so pooling cannot affect determinism; sync.Pool makes reuse
// safe across the sweep workers.
type roundArena struct {
	// msf: the full-length parent array of the Forest it returns (also
	// its duplicate check), each sensor's nearest depot and distance,
	// and the Dense copy of a space that is neither Dense nor Grid
	forest  []int
	nearest []int32
	toRoot  []float64
	dense   metric.Dense
	// contracted MST: parent is its m+1 parent array on both paths
	// (Prim writes it directly; Borůvka orients its edges into it)
	parent []int
	fringe []fringeEntry
	// Borůvka rounds: the sub-index and its k-NN lists (12 bytes per
	// sensor per list entry), the round's components and best offers,
	// and the ring pass's sensors and answers
	gi    metric.GridIndex
	lists metric.NearestLists
	uf    graph.UnionFind
	comp  []int32
	bestW []float64
	bestV []int32
	bestU []int32
	ring  []int32
	nnU   []int32
	nnD   []float64
	// selected MST edges, as parallel endpoint arrays (8 bytes/edge;
	// orientation never needs the weights, which sum into Tree.Weight)
	eu, ev []int32
	// tree-orientation buffers; the BFS cursor and queue are not here —
	// they overlay bestV/bestU, which are dead once the rounds finish
	off  []int32
	adj  []int32
	seen []bool
	// the forest's child lists (childrenCSR)
	csrOff, csrCur, csrKids []int32
	tourArena
}

// tourArena holds one tree's walk (treeFrom) and tour construction
// (tourFromTree) buffers. The serial path uses its round arena's; each
// extra tour worker takes one from tourArenaPool, so worker buffers
// never land in roundArenaPool, where a later round taking one would
// regrow every MST buffer.
type tourArena struct {
	stack   []treeFrame
	members []int
	lparent []int32
	doubled []graph.Edge
	euler   graph.EulerScratch
	tour    []int
}

var (
	roundArenaPool = sync.Pool{New: func() any { return new(roundArena) }}
	tourArenaPool  = sync.Pool{New: func() any { return new(tourArena) }}
)

// grow returns s resized to length n, reallocating only when the
// capacity watermark is exceeded. Contents are unspecified; every user
// fully overwrites (or explicitly clears) what it borrows.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// msf is MSF on a round arena, with a worker budget for the Borůvka grid
// path; the forest is byte-identical for every workers value (see
// msfBoruvka). Tours passes Options.Workers through here so large grid
// plans parallelize the MSF too, not just the per-depot tour builds. The
// returned Forest's Parent aliases ar and its Depots is depots itself.
func msf(sp metric.Space, depots, sensors []int, workers int, ar *roundArena) Forest {
	if len(depots) == 0 {
		panic("rooted: MSF requires at least one depot")
	}
	// The parent array doubles as the duplicate check: every vertex
	// starts NotInForest, and each depot and sensor claims its entry
	// once. A sensor's -1 is a placeholder until un-contraction below
	// sets its parent.
	parent := grow(ar.forest, sp.Len())
	ar.forest = parent
	for i := range parent {
		parent[i] = NotInForest
	}
	for _, d := range depots {
		if parent[d] != NotInForest {
			panic(duplicateMsg(d, true))
		}
		parent[d] = -1
	}
	for _, s := range sensors {
		if parent[s] != NotInForest {
			panic(duplicateMsg(s, false))
		}
		parent[s] = -1
	}
	if len(sensors) == 0 {
		return Forest{Parent: parent, Depots: depots, Weight: 0}
	}

	// Contracted space: vertices 0..len(sensors)-1 are the sensors,
	// vertex len(sensors) is the super-root r. d(v, r) is the distance
	// from v to its nearest depot; nearest[v] records which depot
	// realizes it (the first in depots order on ties) so un-contraction
	// is a table lookup. Depot indices fit int32 by the serve-layer
	// index budget.
	//
	// One kernel per metric kind: fringe Prim on a Dense, Borůvka on a
	// Grid. Any other space is copied into ar's Dense, Dist bit for bit.
	dense, isDense := metric.AsDense(sp)
	grid, isGrid := metric.AsGrid(sp)
	if !isDense && !isGrid {
		metric.MaterializeInto(sp, &ar.dense)
		dense, isDense = ar.dense, true
	}
	ar.nearest = grow(ar.nearest, len(sensors))
	ar.toRoot = grow(ar.toRoot, len(sensors))
	nearest, toNearest := ar.nearest, ar.toRoot
	for i, s := range sensors {
		best, bd := -1, math.Inf(1)
		if isDense {
			row := dense.Row(s)
			for _, d := range depots {
				if w := row[d]; w < bd {
					best, bd = d, w
				}
			}
		} else {
			// Concrete coordinate math, no per-distance interface
			// dispatch: O(q) per sensor, q is small.
			cs := grid.Coords()
			for _, d := range depots {
				if w := cs.Dist(s, d); w < bd {
					best, bd = d, w
				}
			}
		}
		nearest[i], toNearest[i] = int32(best), bd
	}
	var mst graph.Tree
	if isDense {
		mst = primContractedDense(dense, sensors, toNearest, ar)
	} else {
		// Sub-quadratic path: exact Borůvka MSF over the grid index, no
		// O(n²) matrix. Same tree weight as Prim (the MST is unique up
		// to equal-weight edge swaps, which are weight-neutral).
		mst = msfBoruvka(grid, sensors, ar, workers)
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
			panic(unparentedMsg(s))
		}
	}
	f := Forest{Parent: parent, Depots: depots, Weight: mst.Weight}
	if check.Enabled {
		if err := f.Validate(sp, depots, sensors); err != nil {
			panic("rooted: MSF postcondition: " + err.Error())
		}
	}
	return f
}

// Cold constructors for msf's panic messages, kept out of its loops.

func duplicateMsg(v int, depot bool) string {
	if depot {
		return fmt.Sprintf("rooted: duplicate depot %d", v)
	}
	return fmt.Sprintf("rooted: sensor %d duplicates a depot or sensor", v)
}

func unparentedMsg(s int) string { return fmt.Sprintf("rooted: sensor %d unparented by MST", s) }

// fringeEntry is one vertex outside primContractedDense's tree: its
// contracted index v, its point s in the Dense space, and its cheapest
// edge so far, of weight best, to tree vertex p.
type fringeEntry struct {
	v, s, p int32
	best    float64
}

// primContractedDense is graph.PrimMST specialized to the depot-
// contracted space over a Dense parent: vertices 0..m-1 are sensors,
// vertex m is the super-root at toRoot distances. It writes the tree's
// parents into ar.parent, which the returned Tree aliases.
//
// The vertices outside the tree live in a fringe that shrinks by swap-
// removal, and one pass over it both relaxes each entry against the
// vertex that just joined and selects the next one. The selection breaks
// weight ties by the lowest vertex index, which is what graph.PrimMST's
// index-order scan with strict comparisons picks, and relaxation uses the
// same strict comparison; so every step joins the same vertex with the
// same parent as graph.PrimMST, and the weights are summed in the same
// order — parents and Weight are bit-identical to graph.PrimMST over
// the contracted space, the oracle of TestPrimMatchesReference.
func primContractedDense(d metric.Dense, sensors []int, toRoot []float64, ar *roundArena) graph.Tree {
	m := len(sensors)
	parent := grow(ar.parent, m+1)
	parent[m] = -1
	fr := grow(ar.fringe, m)
	ar.parent, ar.fringe = parent, fr
	// The super-root joins first, at weight 0; relaxing its edges seeds
	// the fringe with every sensor at its nearest-depot distance.
	bi, bw, bv := -1, math.Inf(1), int32(0)
	for v := range fr {
		e := fringeEntry{v: int32(v), s: int32(sensors[v]), p: -1, best: math.Inf(1)}
		if toRoot[v] < e.best {
			e.best, e.p = toRoot[v], int32(m)
		}
		fr[v] = e
		if e.best < bw { // ascending v: strict < keeps the lowest index
			bi, bw, bv = v, e.best, e.v
		}
	}
	var total float64
	for len(fr) > 0 {
		if bi < 0 {
			panic("rooted: contracted Prim on disconnected space")
		}
		u := fr[bi]
		last := len(fr) - 1
		fr[bi] = fr[last]
		fr = fr[:last]
		parent[u.v] = int(u.p)
		total += bw
		row := d.Row(int(u.s))
		bi, bw = -1, math.Inf(1)
		for i := range fr {
			e := &fr[i]
			if w := row[e.s]; w < e.best {
				e.best, e.p = w, u.v
			}
			if e.best < bw || (e.best == bw && e.v < bv && bi >= 0) { //lint:allow floateq Prim's lowest-index tie-break, deterministic by design
				bi, bw, bv = i, e.best, e.v
			}
		}
	}
	return graph.Tree{Parent: parent, Weight: total}
}

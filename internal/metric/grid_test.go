package metric

//lint:file-allow floateq grid queries must reproduce dense distances bit-for-bit
import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// listsEqual fails the test unless a and b hold identical neighbor
// lists: same dimensions, same ids, bit-identical distances.
func listsEqual(t *testing.T, a, b *NearestLists, label string) {
	t.Helper()
	if a.n != b.n || a.k != b.k || a.complete != b.complete {
		t.Fatalf("%s: shape mismatch: (%d,%d,%v) vs (%d,%d,%v)",
			label, a.n, a.k, a.complete, b.n, b.k, b.complete)
	}
	for v := 0; v < a.n; v++ {
		aids, ads := a.Neighbors(v)
		bids, bds := b.Neighbors(v)
		for i := range aids {
			if aids[i] != bids[i] || ads[i] != bds[i] {
				t.Fatalf("%s: vertex %d entry %d: (%d,%g) vs (%d,%g)",
					label, v, i, aids[i], ads[i], bids[i], bds[i])
			}
		}
		if a.Radius(v) != b.Radius(v) {
			t.Fatalf("%s: vertex %d radius %g vs %g", label, v, a.Radius(v), b.Radius(v))
		}
	}
}

// TestGridListsMatchDense is the central exactness property of the grid
// index: candidate lists built by ring expansion are identical — same
// neighbors, same order, bit-identical distances — to lists built from
// a materialized Dense matrix.
func TestGridListsMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 17, 100, 300} {
		pts := randomPoints(r, n)
		d := Materialize(NewEuclidean(pts))
		g := NewGrid(pts)
		for _, k := range []int{0, 1, 4, 16, n - 1, n + 3} {
			if k < 0 {
				continue
			}
			listsEqual(t, d.NearestLists(k), g.NearestLists(k), "random")
			// Arena form, including reuse of a previously filled arena.
			var nl NearestLists
			nl.BuildGrid(g, k)
			listsEqual(t, d.NearestLists(k), &nl, "random/arena")
			nl.BuildGrid(g, k)
			listsEqual(t, d.NearestLists(k), &nl, "random/arena-reuse")
		}
	}
}

// TestGridListsTies exercises the (distance, id) tie-breaking on inputs
// engineered to produce many exact distance ties: an integer lattice
// (4-8 equidistant neighbors per vertex) and duplicated points sharing
// a cell at distance zero.
func TestGridListsTies(t *testing.T) {
	var lattice []geom.Point
	for y := 0; y < 7; y++ {
		for x := 0; x < 7; x++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	r := rand.New(rand.NewSource(12))
	dupes := randomPoints(r, 20)
	dupes = append(dupes, dupes...) // every point twice: 20 zero-distance pairs
	dupes = append(dupes, dupes[:10]...)

	for name, pts := range map[string][]geom.Point{"lattice": lattice, "dupes": dupes} {
		d := Materialize(NewEuclidean(pts))
		g := NewGrid(pts)
		for _, k := range []int{1, 3, 8, len(pts) - 1} {
			listsEqual(t, d.NearestLists(k), g.NearestLists(k), name)
		}
	}
}

// TestGridListsDegenerate covers geometry that stresses the cell-sizing
// fallbacks: all points coincident (zero extent), collinear points
// (zero extent on one axis, including an extreme aspect ratio), and the
// trivial sizes.
func TestGridListsDegenerate(t *testing.T) {
	cases := map[string][]geom.Point{
		"single":     {{X: 3, Y: 4}},
		"pair":       {{X: 0, Y: 0}, {X: 1, Y: 1}},
		"coincident": {{X: 2, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 2}},
	}
	var horiz, vert []geom.Point
	for i := 0; i < 40; i++ {
		horiz = append(horiz, geom.Point{X: float64(i) * 1e6, Y: 5})
		vert = append(vert, geom.Point{X: -1, Y: float64(i) / 1e3})
	}
	cases["collinear-x"] = horiz
	cases["collinear-y"] = vert
	for name, pts := range cases {
		d := Materialize(NewEuclidean(pts))
		g := NewGrid(pts)
		for _, k := range []int{0, 1, 2, len(pts) - 1, len(pts) + 1} {
			listsEqual(t, d.NearestLists(k), g.NearestLists(k), name)
		}
	}
}

// TestGridSubIndexMatchesSubspace checks that a SubIndex over a member
// subset answers exactly like a flattened dense sub-matrix over the
// same subset — the property refineOnGrid's per-tour lists rely on.
func TestGridSubIndexMatchesSubspace(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts := randomPoints(r, 120)
	g := NewGrid(pts)
	members := r.Perm(120)[:50]
	sub := NewSub(g, members).Flatten()
	for _, k := range []int{1, 8, 49} {
		var nl NearestLists
		g.SubIndex(members).BuildLists(&nl, k)
		listsEqual(t, sub.NearestLists(k), &nl, "subindex")
	}
}

// bruteNearestExcluding is the reference spec for NearestExcluding: the
// member minimizing (distance, id) among those in a different component
// strictly closer than bound, or (-1, +Inf).
func bruteNearestExcluding(pts []geom.Point, v int, comp []int32, bound float64) (int, float64) {
	best, bd := -1, math.Inf(1)
	for u := range pts {
		if u == v || comp[u] == comp[v] {
			continue
		}
		d := pts[v].Dist(pts[u])
		if d >= bound {
			continue
		}
		if d < bd || (d == bd && u < best) {
			best, bd = u, d
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, bd
}

// TestGridNearestExcluding checks NearestExcluding against the brute-
// force spec over random points, lattice ties, random component
// labelings of varying granularity, and both unbounded and pruning-
// bound queries.
func TestGridNearestExcluding(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	var lattice []geom.Point
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	for name, pts := range map[string][]geom.Point{
		"random":  randomPoints(r, 150),
		"lattice": lattice,
	} {
		m := len(pts)
		gi := NewGrid(pts).Index()
		for _, ncomp := range []int{1, 2, 7, m} {
			comp := make([]int32, m)
			for v := range comp {
				comp[v] = int32(r.Intn(ncomp))
			}
			for v := 0; v < m; v++ {
				for _, bound := range []float64{math.Inf(1), 0, 0.3, pts[v].Dist(pts[(v+1)%m])} {
					wantU, wantD := bruteNearestExcluding(pts, v, comp, bound)
					gotU, gotD := gi.NearestExcluding(v, comp, bound)
					if gotU != wantU || gotD != wantD {
						t.Fatalf("%s ncomp=%d v=%d bound=%g: got (%d,%g), want (%d,%g)",
							name, ncomp, v, bound, gotU, gotD, wantU, wantD)
					}
				}
			}
		}
	}
}

// bruteNearestTo is the reference implementation of NearestTo: linear
// scan with the same (distance, id) tie-break.
func bruteNearestTo(pts []geom.Point, p geom.Point, ok func(int) bool) (int, float64) {
	best, bd := -1, math.Inf(1)
	for u := range pts {
		if ok != nil && !ok(u) {
			continue
		}
		d := math.Hypot(pts[u].X-p.X, pts[u].Y-p.Y)
		if d < bd || (d == bd && best != -1 && u < best) {
			best, bd = u, d
		}
	}
	if best == -1 {
		return -1, math.Inf(1)
	}
	return best, bd
}

// TestGridNearestTo checks the point-predicate query against brute
// force: interior points, points far outside the indexed bounding box
// (exercising the clamped-cell ring bound), coincident points, and
// predicates that reject most or all members.
func TestGridNearestTo(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	var lattice []geom.Point
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			lattice = append(lattice, geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	cases := [][]geom.Point{randomPoints(r, 150), lattice, randomPoints(r, 1)}
	preds := []func(int) bool{
		nil,
		func(u int) bool { return u%2 == 0 },
		func(u int) bool { return u%7 == 3 },
		func(u int) bool { return false },
	}
	for ci, pts := range cases {
		gi := NewGrid(pts).Index()
		queries := []geom.Point{
			{X: 50, Y: 50}, {X: 0, Y: 0},
			{X: -500, Y: 30}, {X: 1e4, Y: 1e4}, // far outside the box
			pts[0], // coincident with a member
			{X: pts[len(pts)/2].X, Y: -200},
		}
		for i := 0; i < 40; i++ {
			queries = append(queries, geom.Point{X: r.Float64()*140 - 20, Y: r.Float64()*140 - 20})
		}
		for _, p := range queries {
			for pi, ok := range preds {
				wantU, wantD := bruteNearestTo(pts, p, ok)
				gotU, gotD := gi.NearestTo(p.X, p.Y, ok)
				if gotU != wantU || gotD != wantD {
					t.Fatalf("case %d pred %d query %v: got (%d,%g), want (%d,%g)",
						ci, pi, p, gotU, gotD, wantU, wantD)
				}
			}
		}
	}
}

// TestGridDistMatchesDense pins the bit-identity of Grid.Dist with a
// materialized matrix — the foundation of every "grid equals dense"
// claim in the planning layers.
func TestGridDistMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts := randomPoints(r, 80)
	d := Materialize(NewEuclidean(pts))
	g := NewGrid(pts)
	if g.Len() != d.Len() {
		t.Fatalf("Len: %d vs %d", g.Len(), d.Len())
	}
	for i := 0; i < g.Len(); i++ {
		for j := 0; j < g.Len(); j++ {
			if g.Dist(i, j) != d.Dist(i, j) {
				t.Fatalf("Dist(%d,%d): %g vs %g", i, j, g.Dist(i, j), d.Dist(i, j))
			}
		}
	}
	if _, ok := AsGrid(g); !ok {
		t.Fatal("AsGrid(g) = false")
	}
	if _, ok := AsGrid(d); ok {
		t.Fatal("AsGrid(Dense) = true")
	}
}

// TestGridIndexConcurrent hammers the lazily built full index from
// several goroutines; the race detector verifies the sync.Once
// publication, and each goroutine checks one query result.
func TestGridIndexConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	pts := randomPoints(r, 200)
	g := NewGrid(pts)
	comp := make([]int32, len(pts))
	for v := range comp {
		comp[v] = int32(v % 5)
	}
	wantU, wantD := bruteNearestExcluding(pts, 17, comp, math.Inf(1))
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func() {
			u, d := g.Index().NearestExcluding(17, comp, math.Inf(1))
			done <- u == wantU && d == wantD
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Fatal("concurrent query disagreed with brute force")
		}
	}
}

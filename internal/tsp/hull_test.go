package tsp

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
)

// ConvexHull returns the indices of the convex hull of pts in
// counter-clockwise order, starting from the lowest-leftmost point
// (Andrew's monotone chain, O(n log n)). Collinear boundary points are
// excluded. Degenerate inputs return what is available: fewer than
// three non-collinear points yield the at-most-two extreme indices.
//
// The hull perimeter is a classic lower bound on any closed tour
// visiting all the points; TestOptimalTourAtLeastHullPerimeter uses it
// to cross-check Held–Karp.
func ConvexHull(pts []geom.Point) []int {
	n := len(pts)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		pa, pb := pts[idx[a]], pts[idx[b]]
		if pa.X != pb.X { //lint:allow floateq lexicographic sort tie-break needs exact comparison
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	// Deduplicate identical points: keep the first of each run.
	uniq := idx[:0]
	for i, id := range idx {
		if i == 0 || pts[id] != pts[idx[i-1]] {
			uniq = append(uniq, id)
		}
	}
	idx = uniq
	if len(idx) < 3 {
		return append([]int(nil), idx...)
	}
	cross := func(o, a, b geom.Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var hull []int
	// Lower hull.
	for _, id := range idx {
		for len(hull) >= 2 && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(idx) - 2; i >= 0; i-- {
		id := idx[i]
		for len(hull) >= lower && cross(pts[hull[len(hull)-2]], pts[hull[len(hull)-1]], pts[id]) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, id)
	}
	return hull[:len(hull)-1] // last point repeats the first
}

// HullPerimeter returns the perimeter of the convex hull of pts — a
// lower bound on the length of any closed tour through all of them.
// Fewer than two distinct points give 0; exactly two give twice their
// distance (out and back).
func HullPerimeter(pts []geom.Point) float64 {
	hull := ConvexHull(pts)
	switch len(hull) {
	case 0, 1:
		return 0
	case 2:
		return 2 * pts[hull[0]].Dist(pts[hull[1]])
	}
	var sum float64
	for i := range hull {
		sum += pts[hull[i]].Dist(pts[hull[(i+1)%len(hull)]])
	}
	return sum
}

func TestConvexHullSquare(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10), // corners
		geom.Pt(5, 5), geom.Pt(3, 7), geom.Pt(9, 1), // interior
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull = %v, want the 4 corners", hull)
	}
	seen := map[int]bool{}
	for _, h := range hull {
		seen[h] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("corner %d missing from hull %v", i, hull)
		}
	}
	if p := HullPerimeter(pts); math.Abs(p-40) > 1e-9 {
		t.Errorf("perimeter = %g, want 40", p)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); len(h) != 0 {
		t.Errorf("empty hull = %v", h)
	}
	if h := ConvexHull([]geom.Point{geom.Pt(1, 1)}); len(h) != 1 {
		t.Errorf("single hull = %v", h)
	}
	if p := HullPerimeter([]geom.Point{geom.Pt(1, 1)}); p != 0 {
		t.Errorf("single perimeter = %g", p)
	}
	two := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	if p := HullPerimeter(two); math.Abs(p-10) > 1e-12 {
		t.Errorf("two-point perimeter = %g, want 10", p)
	}
	// Duplicates collapse.
	dup := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}
	if h := ConvexHull(dup); len(h) != 1 {
		t.Errorf("duplicate hull = %v", h)
	}
	// Collinear points: hull is the two endpoints.
	col := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	h := ConvexHull(col)
	if len(h) != 2 {
		t.Fatalf("collinear hull = %v", h)
	}
	if p := HullPerimeter(col); math.Abs(p-6) > 1e-12 {
		t.Errorf("collinear perimeter = %g, want 6", p)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	// Every input point lies inside or on the hull polygon: check via
	// the cross-product sign against every hull edge.
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(100)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue // astronomically unlikely with float coords
		}
		for pi, p := range pts {
			for i := range hull {
				a := pts[hull[i]]
				b := pts[hull[(i+1)%len(hull)]]
				cross := (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
				if cross < -1e-6 {
					t.Fatalf("trial %d: point %d outside hull edge %d", trial, pi, i)
				}
			}
		}
	}
}

func TestHullPerimeterBelowAnyCycle(t *testing.T) {
	// The hull perimeter never exceeds the cycle through all points in
	// any order.
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(30)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
		cycle := Cost(metric.NewEuclidean(pts), r.Perm(n))
		if HullPerimeter(pts) > cycle+1e-9 {
			t.Fatalf("trial %d: hull perimeter %g > random cycle %g",
				trial, HullPerimeter(pts), cycle)
		}
	}
}

// Package geom provides the planar geometry primitives used throughout the
// charger-scheduling library: points, distances, rectangles and convex
// hulls.
//
// All coordinates are in metres, matching the paper's 1,000m x 1,000m
// deployment field. Distances are Euclidean, so every distance function in
// this package induces a metric space (symmetry, identity, triangle
// inequality), which the approximation guarantees of the tour algorithms
// rely on.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the two-dimensional deployment field.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot loops such as
// nearest-neighbour scans.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector difference p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, the deployment field of a network.
// Min is the lower-left corner and Max the upper-right corner.
type Rect struct {
	Min, Max Point
}

// Square returns the side x side rectangle anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the centre point of r; the paper places the base station
// there.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Diagonal returns the length of the diagonal of r, an upper bound on any
// pairwise distance within the field.
func (r Rect) Diagonal() float64 { return r.Min.Dist(r.Max) }

// Clamp returns the point of r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// PathLength returns the total length of the polyline visiting pts in
// order. It returns 0 for fewer than two points.
func PathLength(pts []Point) float64 {
	var sum float64
	for i := 1; i < len(pts); i++ {
		sum += pts[i-1].Dist(pts[i])
	}
	return sum
}

// CycleLength returns the total length of the closed tour visiting pts in
// order and returning to pts[0]. It returns 0 for fewer than two points.
func CycleLength(pts []Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	return PathLength(pts) + pts[len(pts)-1].Dist(pts[0])
}

// Centroid returns the arithmetic mean of pts. It panics on an empty
// slice, as a centroid of nothing is meaningless.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}

// NearestIndex returns the index of the point in pts closest to p and the
// distance to it. It returns (-1, +Inf) for an empty slice.
func NearestIndex(p Point, pts []Point) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, q := range pts {
		if d2 := p.Dist2(q); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	if best < 0 {
		return -1, math.Inf(1)
	}
	return best, math.Sqrt(bestD2)
}

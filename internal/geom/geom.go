// Package geom provides the planar geometry primitives used throughout the
// charger-scheduling library: points, distances and rectangles.
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

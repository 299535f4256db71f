// Package metric defines the finite metric spaces the tour and forest
// algorithms operate on.
//
// The paper's deployment graph G = (V ∪ R, E; w) is the metric completion
// of Euclidean sensor/depot locations, but the approximation guarantees of
// the q-rooted MSF/TSP algorithms hold for any metric. Keeping the
// algorithms generic over this small interface lets the test suite verify
// them on adversarial explicit matrices, not just on points in the plane.
package metric

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Space is a finite (pseudo-)metric space over points indexed 0..Len()-1.
// Implementations must be symmetric with zero diagonal; the algorithms in
// internal/rooted additionally assume the triangle inequality for their
// approximation bounds (shortcutting never lengthens a walk).
type Space interface {
	// Len returns the number of points.
	Len() int
	// Dist returns the distance between points i and j.
	Dist(i, j int) float64
}

// Euclidean is the metric space induced by a slice of planar points.
type Euclidean struct {
	Pts []geom.Point
}

// NewEuclidean returns the Euclidean space over pts. The slice is
// referenced, not copied.
func NewEuclidean(pts []geom.Point) Euclidean { return Euclidean{Pts: pts} }

// Len implements Space.
func (e Euclidean) Len() int { return len(e.Pts) }

// Dist implements Space.
func (e Euclidean) Dist(i, j int) float64 { return e.Pts[i].Dist(e.Pts[j]) }

// Matrix is an explicit symmetric distance matrix.
type Matrix struct {
	D [][]float64
}

// NewMatrix validates and wraps an explicit distance matrix. It returns an
// error if d is not square, not symmetric, or has a nonzero diagonal.
//
//lint:allow hotalloc construction-time validation: allocates only to reject a malformed matrix
func NewMatrix(d [][]float64) (Matrix, error) {
	n := len(d)
	for i, row := range d {
		if len(row) != n {
			return Matrix{}, fmt.Errorf("metric: row %d has length %d, want %d", i, len(row), n)
		}
		if row[i] != 0 {
			return Matrix{}, fmt.Errorf("metric: nonzero diagonal at %d: %g", i, row[i])
		}
		for j := 0; j < i; j++ {
			if row[j] != d[j][i] { //lint:allow floateq symmetry validation: entries must match bit-for-bit
				return Matrix{}, fmt.Errorf("metric: asymmetric at (%d,%d): %g vs %g", i, j, row[j], d[j][i])
			}
			if row[j] < 0 {
				return Matrix{}, fmt.Errorf("metric: negative distance at (%d,%d): %g", i, j, row[j])
			}
		}
	}
	return Matrix{D: d}, nil
}

// Len implements Space.
func (m Matrix) Len() int { return len(m.D) }

// Dist implements Space.
func (m Matrix) Dist(i, j int) float64 { return m.D[i][j] }

// Sub is the sub-space of a parent space induced by a subset of its
// points. Index k of the Sub corresponds to parent index Idx[k].
type Sub struct {
	Parent Space
	Idx    []int
}

// NewSub returns the sub-space of parent induced by idx. The index slice
// is referenced, not copied.
func NewSub(parent Space, idx []int) Sub { return Sub{Parent: parent, Idx: idx} }

// Len implements Space.
func (s Sub) Len() int { return len(s.Idx) }

// Dist implements Space.
func (s Sub) Dist(i, j int) float64 { return s.Parent.Dist(s.Idx[i], s.Idx[j]) }

// Materialize copies sp into a flat Dense matrix, the layout every hot
// loop devirtualizes on. Useful when the same space will be queried many
// times and Dist is expensive (Euclidean square roots, Sub indirection).
//
// Aliasing contract: a sp that is already Dense (or *Dense) is returned
// as-is — the result shares its backing array with the input and no
// distances are recomputed. All other inputs, including Matrix and Sub,
// are copied into fresh storage (a Matrix is row-copied without Dist
// calls; a Sub gathers from its parent via Flatten). Callers must treat
// any materialized space as read-only.
//
//lint:allow hotdist one-time O(n²) build, generic tail only for non-special spaces
func Materialize(sp Space) Dense {
	switch s := sp.(type) {
	case Dense:
		return s
	case *Dense:
		return *s
	case Matrix:
		out := NewDense(len(s.D))
		for i, row := range s.D {
			copy(out.Row(i), row)
		}
		return out
	case Sub:
		return s.Flatten()
	case *Sub:
		return s.Flatten()
	}
	n := sp.Len()
	out := NewDense(n)
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := i + 1; j < n; j++ {
			v := sp.Dist(i, j)
			row[j] = v
			out.Row(j)[i] = v
		}
	}
	return out
}

// MaterializeInto fills dst with sp's distances, reusing dst's backing
// array when it is large enough — the arena form of Materialize for
// callers (the sweep worker loop) that materialize many spaces of
// similar size in sequence. Unlike Materialize it always copies, never
// aliases, so dst stays valid after sp is gone; sp must not alias dst.
//
//lint:allow hotdist one-time O(n²) build, generic tail only for non-special spaces
func MaterializeInto(sp Space, dst *Dense) {
	n := sp.Len()
	if cap(dst.d) >= n*n {
		dst.d = dst.d[:n*n]
	} else {
		dst.d = make([]float64, n*n)
	}
	dst.n = n
	switch s := sp.(type) {
	case Dense:
		copy(dst.d, s.d)
		return
	case *Dense:
		copy(dst.d, s.d)
		return
	case Matrix:
		for i, row := range s.D {
			copy(dst.Row(i), row)
		}
		return
	}
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		row[i] = 0 // reused storage: the generic fill skips the diagonal
		for j := i + 1; j < n; j++ {
			v := sp.Dist(i, j)
			row[j] = v
			dst.Row(j)[i] = v
		}
	}
}

// Closure returns the metric closure of the possibly non-metric matrix d:
// all-pairs shortest paths via Floyd–Warshall. The input is not modified.
// Tests use it to turn arbitrary random symmetric matrices into valid
// metrics.
func Closure(d [][]float64) Matrix {
	n := len(d)
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), d[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := out[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + out[k][j]; v < out[i][j] {
					out[i][j] = v
				}
			}
		}
	}
	return Matrix{D: out}
}

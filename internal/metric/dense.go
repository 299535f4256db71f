package metric

// Dense is a flat, contiguous symmetric distance matrix with i*n+j
// indexing. It is the cache-friendly workhorse of the hot loops: the
// Prim scan and the 2-opt/Or-opt/3-opt and balancing kernels take a
// Dense and run with direct, inlinable element access instead of
// per-distance interface dispatch over a pointer-chasing [][]float64.
//
// Dense is a small value (an int and a slice header); copying a Dense
// aliases the same backing array. Callers treat a built Dense as
// read-only and may share it freely across goroutines.
type Dense struct {
	n int
	d []float64
}

// NewDense returns an n×n zero Dense (a valid pseudo-metric).
func NewDense(n int) Dense {
	return Dense{n: n, d: make([]float64, n*n)}
}

// Len implements Space.
func (m Dense) Len() int { return m.n }

// Dist implements Space. It performs no bounds arithmetic beyond the
// single multiply-add, so it inlines into concrete-type call sites.
func (m Dense) Dist(i, j int) float64 { return m.d[i*m.n+j] }

// Row returns row i of the matrix as a shared (not copied) slice of
// length Len(). Hot loops hoist a Row outside their inner loop so the
// per-element access is a plain slice index.
func (m Dense) Row(i int) []float64 { return m.d[i*m.n : (i+1)*m.n : (i+1)*m.n] }

// AsDense reports the Dense underlying sp, unwrapping a pointer if
// needed. Hot paths call it once at entry to select their devirtualized
// loop; a false return means "stay on the generic interface path".
func AsDense(sp Space) (Dense, bool) {
	switch s := sp.(type) {
	case Dense:
		return s, true
	case *Dense:
		return *s, true
	}
	return Dense{}, false
}

// Flatten materializes the sub-space into a Dense. A Sub double-
// indirects through its parent on every Dist call, so callers that
// query a subspace more than O(n) times (local search, Held–Karp)
// flatten it first. When the parent is itself Dense the fill is a
// gather over parent rows with no Dist calls at all; a Grid parent is
// gathered with concrete point math (the same Hypot the Dense build
// uses, so the flattened entries are bit-identical to a dense-path
// sub-matrix).
//
//lint:allow hotdist one-time build gather; the generic tail is the non-Dense, non-Grid fallback
func (s Sub) Flatten() Dense {
	n := len(s.Idx)
	out := NewDense(n)
	if pd, ok := AsDense(s.Parent); ok {
		for i := 0; i < n; i++ {
			prow := pd.Row(s.Idx[i])
			row := out.Row(i)
			for j, pj := range s.Idx {
				row[j] = prow[pj]
			}
		}
		return out
	}
	if g, ok := AsGrid(s.Parent); ok {
		cs := g.Coords()
		for i := 0; i < n; i++ {
			pi := s.Idx[i]
			row := out.Row(i)
			for j, pj := range s.Idx {
				row[j] = cs.Dist(pi, pj)
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := 0; j < n; j++ {
			row[j] = s.Parent.Dist(s.Idx[i], s.Idx[j])
		}
	}
	return out
}

package tsp

import "repro/internal/metric"

// Scratch is a reusable per-goroutine arena for the candidate-list
// local-search sweeps (TwoOptLists, OrOptLists) and the on-grid
// refiners (RefineTourGrid). Passing the same Scratch
// across many calls — the experiment sweep worker loop refines
// thousands of tours per cell — takes their steady-state allocation
// rate to zero. A Scratch must not be shared between concurrent calls;
// nil is always accepted and means "allocate privately".
type Scratch struct {
	// pos maps vertex id -> current tour position. Invariant between
	// calls: every entry up to cap is -1, so borrowing it costs O(tour),
	// not O(space). Callers reset the entries they set before returning.
	pos []int32
	// elen[i] caches the length of the tour edge at position i,
	// d(tour[i], tour[(i+1)%n]) — the values the pruning gates compare.
	elen []float64
	// cand holds the sorted candidate positions of the current scan row.
	cand []int32
	// buf backs RefineTourGrid's map-back of the refined local order.
	buf []int
	// sub and lists back the per-tour grid sub-index and candidate
	// lists of RefineTourGrid; local is its identity working tour.
	sub   metric.GridIndex
	lists metric.NearestLists
	local []int
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// positions borrows the vertex->position array for a space of n
// vertices, every entry -1. The caller must restore -1 to all entries
// it sets before the next borrow.
func (sc *Scratch) positions(n int) []int32 {
	if cap(sc.pos) >= n {
		return sc.pos[:n]
	}
	sc.pos = make([]int32, n)
	sc.pos = sc.pos[:cap(sc.pos)]
	for i := range sc.pos {
		sc.pos[i] = -1
	}
	return sc.pos[:n]
}

// edges borrows the edge-length array for a tour of n vertices.
func (sc *Scratch) edges(n int) []float64 {
	if cap(sc.elen) >= n {
		return sc.elen[:n]
	}
	sc.elen = make([]float64, n)
	return sc.elen
}

// ints borrows an int buffer of length n.
func (sc *Scratch) ints(n int) []int {
	if cap(sc.buf) >= n {
		return sc.buf[:n]
	}
	sc.buf = make([]int, n)
	return sc.buf
}

// locals borrows the grid refiner's local-tour buffer of length n.
func (sc *Scratch) locals(n int) []int {
	if cap(sc.local) >= n {
		return sc.local[:n]
	}
	sc.local = make([]int, n)
	return sc.local
}

package metric

import "math"

var inf = math.Inf(1)

// DefaultNearest is the candidate-list width the experiment harness and
// the local-search auto-build path use. Larger k makes the pruned sweeps
// examine more moves per row before the edge-length gate kicks in;
// smaller k makes the radius fallback (a full row scan) more frequent.
// 16 keeps both rare on the paper's instance sizes (n up to 2000).
const DefaultNearest = 16

// NearestLists is a per-vertex k-nearest-neighbor candidate structure
// over a Dense space, the shared read-only accelerator behind the
// candidate-list local search in internal/tsp and internal/rooted.
//
// For every vertex v the structure stores the k nearest other vertices
// sorted ascending by (distance, id) — the id tie-break makes the
// contents a pure function of the matrix, independent of build order.
//
// The completeness guarantee the pruned sweeps rely on: every vertex u
// with d(v, u) < Radius(v) appears in v's list. Any sweep that only
// needs neighbors strictly within some radius r may therefore trust the
// list as exhaustive whenever r <= Radius(v), and must fall back to a
// full scan otherwise.
//
// Like Dense, a built NearestLists is treated as read-only and may be
// shared freely across goroutines.
type NearestLists struct {
	n, k     int
	complete bool // k >= n-1: lists hold every other vertex
	ids      []int32
	dist     []float64
}

// NearestLists builds the k-nearest-neighbor lists of m. k is clamped to
// [0, n-1]. The build is a bounded insertion-sort selection over each
// dense row: O(n·k) per row worst case, O(n²) total for small k, with
// two flat output arrays as the only allocations.
func (m Dense) NearestLists(k int) *NearestLists {
	nl := &NearestLists{}
	nl.Build(m, k)
	return nl
}

// Build (re)fills nl from m, reusing nl's backing arrays when they are
// large enough. It is the arena-friendly form of Dense.NearestLists.
func (nl *NearestLists) Build(m Dense, k int) {
	n := m.Len()
	if k > n-1 {
		k = n - 1
	}
	if k < 0 {
		k = 0
	}
	nl.n, nl.k = n, k
	nl.complete = k >= n-1
	if cap(nl.ids) >= n*k {
		nl.ids = nl.ids[:n*k]
	} else {
		nl.ids = make([]int32, n*k)
	}
	if cap(nl.dist) >= n*k {
		nl.dist = nl.dist[:n*k]
	} else {
		nl.dist = make([]float64, n*k)
	}
	if k == 0 {
		return
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		ids := nl.ids[i*k : (i+1)*k]
		ds := nl.dist[i*k : (i+1)*k]
		cnt := 0
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := row[j]
			if cnt == k {
				// j iterates ascending, so on a distance tie with the
				// current worst entry the incumbent has the smaller id
				// and j cannot displace it.
				if d >= ds[k-1] {
					continue
				}
			}
			// Binary search for the insertion point by (distance, id);
			// all stored ids are < j, so a tie in distance sorts j last
			// among equals automatically.
			lo, hi := 0, cnt
			for lo < hi {
				mid := (lo + hi) / 2
				if ds[mid] <= d {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if cnt < k {
				cnt++
			}
			copy(ds[lo+1:cnt], ds[lo:cnt-1])
			copy(ids[lo+1:cnt], ids[lo:cnt-1])
			ds[lo] = d
			ids[lo] = int32(j)
		}
	}
}

// Neighbors returns vertex v's candidate list: parallel slices of
// neighbor ids and distances, sorted ascending by (distance, id). The
// slices alias the shared structure and must not be modified.
func (nl *NearestLists) Neighbors(v int) ([]int32, []float64) {
	return nl.ids[v*nl.k : (v+1)*nl.k], nl.dist[v*nl.k : (v+1)*nl.k]
}

// Radius returns the completeness radius of vertex v's list: every
// vertex u with d(v, u) < Radius(v) is guaranteed to appear in it.
// +Inf when the list is complete (k >= n-1), 0 when k == 0.
func (nl *NearestLists) Radius(v int) float64 {
	if nl.complete {
		return inf
	}
	if nl.k == 0 {
		return 0
	}
	return nl.dist[(v+1)*nl.k-1]
}

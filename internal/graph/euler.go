package graph

import "fmt"

// EulerScratch holds the working arrays of EulerCircuit and Shortcut so
// a caller that walks many small multigraphs — one per tour per round —
// reuses one allocation instead of making seven per walk. The zero value
// is ready to use. Slices returned by its methods alias it and stay
// valid until the next call on the same scratch; it must not be shared
// between goroutines.
type EulerScratch struct {
	off, cur, stack, circuit, tour []int
	halves                         []half
	used                           []bool
}

// half is one direction of an undirected edge in EulerScratch's flat CSR
// adjacency.
type half struct {
	to   int
	pair int // flat index of the twin half-edge
}

// EulerCircuit returns an Euler circuit of the connected multigraph over n
// vertices with the given edges (parallel edges and self-loops allowed),
// starting and ending at start. The circuit is returned as a vertex
// sequence of length len(edges)+1 whose first and last elements are start.
//
// Algorithm 2 of the paper doubles every tree edge and walks the resulting
// Eulerian multigraph; this is the Hierholzer implementation backing that
// step. It runs in O(V + E).
//
// It returns an error if some vertex has odd degree, if the edges do not
// form a single connected component containing start, or if start has no
// incident edge while other edges exist.
func EulerCircuit(n int, edges []Edge, start int) ([]int, error) {
	return new(EulerScratch).Circuit(n, edges, start)
}

// Circuit is EulerCircuit on s's buffers; the returned walk aliases s.
func (s *EulerScratch) Circuit(n int, edges []Edge, start int) ([]int, error) {
	if start < 0 || start >= n {
		return nil, fmt.Errorf("graph: Euler start %d out of range [0,%d)", start, n)
	}
	if len(edges) == 0 {
		s.circuit = append(s.circuit[:0], start)
		return s.circuit, nil
	}
	// Half-edges live in one flat CSR array (vertex v owns
	// halves[off[v]:off[v+1]]) instead of n per-vertex slices. The
	// per-vertex order matches what per-vertex appends would produce
	// (edge input order, twin halves of a self-loop adjacent), so the
	// circuit is unchanged. off[v+1] first counts v's degree.
	off := grow(s.off, n+1)
	clear(off)
	for _, e := range edges {
		off[e.U+1]++
		off[e.V+1]++
	}
	for v := 0; v < n; v++ {
		if d := off[v+1]; d%2 != 0 {
			return nil, fmt.Errorf("graph: vertex %d has odd degree %d; no Euler circuit", v, d)
		}
	}
	if off[start+1] == 0 {
		return nil, fmt.Errorf("graph: Euler start %d has no incident edges", start)
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	halves := grow(s.halves, 2*len(edges))
	cur := grow(s.cur, n) // fill cursor, then reused as the walk cursor
	copy(cur, off[:n])
	for _, e := range edges {
		iu, iv := cur[e.U], cur[e.V]
		if e.U == e.V {
			// A self-loop contributes two adjacent half-edges.
			halves[iu] = half{to: e.V, pair: iu + 1}
			halves[iu+1] = half{to: e.U, pair: iu}
			cur[e.U] += 2
			continue
		}
		halves[iu] = half{to: e.V, pair: iv}
		halves[iv] = half{to: e.U, pair: iu}
		cur[e.U]++
		cur[e.V]++
	}
	copy(cur, off[:n])

	used := grow(s.used, len(halves))
	clear(used)
	// Iterative Hierholzer: walk until stuck, backtrack, splice.
	stack := append(grow(s.stack, len(edges)+1)[:0], start)
	circuit := grow(s.circuit, len(edges)+1)[:0]
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		advanced := false
		for cur[v] < off[v+1] {
			i := cur[v]
			if used[i] {
				cur[v]++
				continue
			}
			h := halves[i]
			used[i] = true
			used[h.pair] = true
			cur[v]++
			stack = append(stack, h.to)
			advanced = true
			break
		}
		if !advanced {
			circuit = append(circuit, v)
			stack = stack[:len(stack)-1]
		}
	}
	s.off, s.cur, s.halves, s.used, s.stack, s.circuit = off, cur, halves, used, stack, circuit
	if len(circuit) != len(edges)+1 {
		return nil, fmt.Errorf("graph: multigraph not connected: circuit covers %d of %d edges",
			len(circuit)-1, len(edges))
	}
	// Reverse so the walk starts at start (Hierholzer emits it reversed;
	// for an undirected circuit either direction is valid, but a
	// deterministic orientation keeps golden tests stable).
	for i, j := 0, len(circuit)-1; i < j; i, j = i+1, j-1 {
		circuit[i], circuit[j] = circuit[j], circuit[i]
	}
	return circuit, nil
}

// Shortcut removes repeated vertices from an Euler walk, keeping the first
// occurrence of each vertex, and closes the tour back to its first vertex.
// Under the triangle inequality the shortcut tour is never longer than the
// walk. The returned slice lists each distinct vertex exactly once,
// starting with walk[0]; the closing edge back to walk[0] is implicit.
func Shortcut(walk []int) []int {
	return new(EulerScratch).Shortcut(walk)
}

// Shortcut is the package-level Shortcut on s's buffers; the returned
// tour aliases s, and walk may be the walk Circuit returned.
func (s *EulerScratch) Shortcut(walk []int) []int {
	if len(walk) == 0 {
		return nil
	}
	// Vertices are small metric-space indices, so a flat seen-slice
	// (sized to the walk's max vertex) beats a map in this hot path.
	max := walk[0]
	for _, v := range walk[1:] {
		if v > max {
			max = v
		}
	}
	seen := grow(s.used, max+1)
	clear(seen)
	out := grow(s.tour, len(walk))[:0]
	for _, v := range walk {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	s.used, s.tour = seen, out
	return out
}

// grow returns b resized to length n, reallocating only when its
// capacity is short. Contents are unspecified.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

package rooted

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/metric"
)

// boruvkaParallelGate is the sensor count below which msfBoruvka stays
// serial even when Workers > 1: the per-round bound pre-pass and
// goroutine handoff cost more than the queries they would shard.
const boruvkaParallelGate = 2048

// msfBoruvka computes the exact MST of the depot-contracted space —
// vertices 0..m-1 are the sensors, vertex m the super-root at ar.toRoot
// distances — without a distance matrix, using Borůvka rounds over a
// grid index of the sensor coordinates. It is the sub-quadratic twin of
// primContractedDense, selected by msf when the space is a metric.Grid.
// ar carries the pooled buffers and the toRoot array its caller filled;
// the returned Tree's Parent aliases the arena, so the caller must be
// done with it before releasing ar.
//
// Each round finds, for every component, its minimum-weight outgoing
// edge: sensor–sensor candidates come from GridIndex.NearestExcluding
// (exact nearest member outside the sensor's component, pruned by a
// bound no better candidate can beat, see below), and super-root
// candidates from the precomputed toRoot array, credited to both
// endpoint components. The chosen edges are merged through a
// union-find, skipping edges whose endpoints an earlier merge of the
// round already connected (equal-weight edge cycles — the only cycles
// Borůvka can produce — are weight-neutral to skip, so total weight
// stays exactly the MST weight). Components halve every round, so
// there are O(log m) rounds.
//
// Determinism and the Workers contract: the round's result is the
// (weight, sensor, neighbor)-lexicographic minimum offer per component,
// taken by a serial merge scanning sensors in ascending index. A
// sensor's query bound may therefore prune exactly the candidates that
// cannot win that merge — any candidate at distance ≥ the weight of an
// offer the merge sees from a smaller sensor index loses (on weight, or
// on sensor index at equal weight). The serial path uses the running
// best (tightest such bound); the parallel path precomputes a per-
// sensor bound from root offers alone, which is a pure function of the
// round's components — independent of worker count and of other
// queries — so every query returns the same neighbor no matter how the
// sensors are sharded, and the merge is byte-equal to serial. Extra
// survivors admitted by the looser parallel bound are exactly ties the
// merge discards. workers ≤ 1 (or small m) runs fully serial.
func msfBoruvka(g *metric.Grid, sensors []int, ar *roundArena, workers int) graph.Tree {
	m := len(sensors)
	g.SubIndexInto(&ar.gi, sensors)
	gi := &ar.gi
	toRoot := ar.toRoot
	ar.uf.Reset(m + 1)
	uf := &ar.uf

	comp := grow(ar.comp, m)
	bestW := grow(ar.bestW, m+1)
	bestV := grow(ar.bestV, m+1)
	bestU := grow(ar.bestU, m+1)
	eu, ev := ar.eu[:0], ar.ev[:0]
	var weight float64

	parallel := workers > 1 && m >= boruvkaParallelGate
	var bound, cMin, nnD []float64
	var nnU []int32
	if parallel {
		bound = grow(ar.bound, m)
		cMin = grow(ar.cMin, m+1)
		nnU = grow(ar.nnU, m)
		nnD = grow(ar.nnD, m)
	}

	for uf.Sets() > 1 {
		for v := 0; v < m; v++ {
			comp[v] = int32(uf.Find(v))
		}
		rootComp := int32(uf.Find(m))
		for c := 0; c <= m; c++ {
			bestW[c] = math.Inf(1)
		}
		// offer proposes edge (v, u) of weight w as component c's
		// outgoing edge, keeping the (weight, v, u)-lexicographic
		// minimum.
		offer := func(c int32, w float64, v, u int32) {
			i := int(c)
			if w < bestW[i] ||
				(w == bestW[i] && (v < bestV[i] || (v == bestV[i] && u < bestU[i]))) { //lint:allow floateq lexicographic (weight, v, u) edge tie-break, deterministic by design
				bestW[i], bestV[i], bestU[i] = w, v, u
			}
		}
		if parallel {
			// Bound pre-pass, serial O(m): for each sensor the tightest
			// prune derivable from root offers the merge will see before
			// (or, own root offer, immediately after) its own candidate.
			// cMin[c] is the running minimum root-offer weight credited
			// to component c by sensors with smaller index; a candidate
			// at distance ≥ that weight loses the merge to the earlier
			// sensor's offer (smaller index wins equal weight). A
			// sensor's own root offer has the same index, so candidates
			// that TIE it still win (neighbor u < super-root m breaks
			// the tie) — hence the one-ulp bump keeping d == toRoot[v]
			// alive. Sensors in the super-root's component make no root
			// offer (that edge is internal there), so only the cMin term
			// applies to them.
			for c := 0; c <= m; c++ {
				cMin[c] = math.Inf(1)
			}
			for v := 0; v < m; v++ {
				c := comp[v]
				b := cMin[c]
				if c != rootComp {
					if up := math.Nextafter(toRoot[v], math.Inf(1)); up < b {
						b = up
					}
					if toRoot[v] < cMin[c] {
						cMin[c] = toRoot[v]
					}
					if toRoot[v] < cMin[rootComp] {
						cMin[rootComp] = toRoot[v]
					}
				}
				bound[v] = b
			}
			// Query phase: every input is fixed before the fan-out, so
			// each sensor's answer is independent of sharding; workers
			// write disjoint fixed slots.
			var wg sync.WaitGroup
			chunk := (m + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > m {
					hi = m
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for v := lo; v < hi; v++ {
						u, d := gi.NearestExcluding(v, comp, bound[v])
						nnU[v], nnD[v] = int32(u), d
					}
				}(lo, hi)
			}
			wg.Wait()
		}
		for v := 0; v < m; v++ {
			c := comp[v]
			if parallel {
				if u := nnU[v]; u >= 0 {
					offer(c, nnD[v], int32(v), u)
				}
			} else {
				// Query under the running best: an equal-weight candidate
				// pruned by it is one that would have lost the
				// (weight, v, u) tie-break anyway.
				if u, d := gi.NearestExcluding(v, comp, bestW[c]); u >= 0 {
					offer(c, d, int32(v), int32(u))
				}
			}
			if c != rootComp {
				w := toRoot[v]
				offer(c, w, int32(v), int32(m))
				offer(rootComp, w, int32(v), int32(m))
			}
		}
		progress := false
		for c := 0; c <= m; c++ {
			if math.IsInf(bestW[c], 1) {
				continue
			}
			if uf.Union(int(bestV[c]), int(bestU[c])) {
				eu = append(eu, bestU[c])
				ev = append(ev, bestV[c])
				weight += bestW[c]
				progress = true
			}
		}
		if !progress {
			// A complete geometric graph always offers every component an
			// outgoing edge; reaching here means the index is broken.
			panic("rooted: Borůvka round made no progress")
		}
	}
	ar.eu, ar.ev = eu, ev
	if len(eu) != m {
		panic(fmt.Sprintf("rooted: Borůvka selected %d edges for %d sensors", len(eu), m))
	}

	// Orient the undirected tree away from the super-root with one BFS;
	// the parent array of a tree is unique, so traversal order does not
	// matter beyond determinism of the walk itself.
	off := grow(ar.off, m+2)
	for i := range off {
		off[i] = 0
	}
	for i := range eu {
		off[eu[i]+1]++
		off[ev[i]+1]++
	}
	for v := 0; v < m+1; v++ {
		off[v+1] += off[v]
	}
	adj := grow(ar.adj, 2*len(eu))
	// bestV/bestU (m+1 int32 each) are dead after the last union pass;
	// reuse them as the fill cursor and BFS queue instead of dedicating
	// two more arrays to the orientation.
	cur := bestV[:m+1]
	copy(cur, off[:m+1])
	for i := range eu {
		adj[cur[eu[i]]] = ev[i]
		cur[eu[i]]++
		adj[cur[ev[i]]] = eu[i]
		cur[ev[i]]++
	}
	parent := grow(ar.parent, m+1)
	seen := grow(ar.seen, m+1)
	for v := range parent {
		parent[v] = -1
		seen[v] = false
	}
	queue := bestU[:0]
	queue = append(queue, int32(m))
	seen[m] = true
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, u := range adj[off[v]:off[v+1]] {
			if !seen[u] {
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	for v := 0; v < m; v++ {
		if !seen[v] {
			panic(unspannedMsg(v))
		}
	}
	ar.comp, ar.bestW, ar.bestV, ar.bestU = comp, bestW, bestV, bestU
	ar.bound, ar.cMin, ar.nnU, ar.nnD = bound, cMin, nnU, nnD
	ar.off, ar.adj, ar.parent, ar.seen = off, adj, parent, seen
	return graph.Tree{Parent: parent, Weight: weight}
}

// unspannedMsg keeps msfBoruvka's panic message construction out of its
// spanning check's loop.
func unspannedMsg(v int) string {
	return fmt.Sprintf("rooted: Borůvka tree does not span sensor %d", v)
}

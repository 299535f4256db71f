package rooted

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/metric"
)

// boruvkaListK is the width of the k-nearest-neighbour lists msfBoruvka
// builds once per call. A sensor whose list leaves its component gets
// its exact nearest foreign point from the list; only sensors whose
// whole list lies inside their component fall through to a ring query.
// On a plan of session-churn's shape (n=50,000, q=8, Workers 1) 8 beat
// 4, 6 and 12 (~340 ms against ~495, ~370 and ~385 ms on a 2-vCPU VM):
// narrower lists send more sensors to ring queries, wider ones cost
// more to build than they save.
const boruvkaListK = 8

// boruvkaShardMin is the fewest ring-pass queries worth a goroutine of
// their own: below it a round's queries run on the calling goroutine.
// Sharding never changes a query's answer, only who computes it.
const boruvkaShardMin = 1024

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
// edge, the (weight, v, u)-lexicographic minimum over the offers: each
// sensor's edge to its nearest point outside its component, and each
// sensor's edge to the super-root, credited to both endpoint
// components. The chosen edges are merged through a union-find,
// skipping edges whose endpoints an earlier merge of the round already
// connected (equal-weight edge cycles — the only cycles Borůvka can
// produce — are weight-neutral to skip, so total weight stays exactly
// the MST weight). Components halve every round, so there are
// O(log m) rounds.
//
// A round answers the nearest-foreign queries in two passes over the
// k-NN lists of the sub-index (the filter-then-search shape of March,
// Ram and Gray's geometric Borůvka):
//
//   - List pass (serial). Each sensor makes its root offer, and the
//     first entry of its list outside its component is its exact
//     nearest foreign point: the list holds the k nearest by
//     (distance, id), the order GridIndex.NearestExcluding breaks ties
//     in, so nothing foreign precedes that entry.
//   - Ring pass. A sensor whose whole list lies inside its component
//     queries NearestExcluding under a bound that prunes only candidates
//     that cannot win its component's merge: the component's best offer
//     after the list pass, raised by one ulp when the sensor's index is
//     at most the incumbent's (it would win that weight tie). When
//     Radius(v) reaches the bound, every foreign point is at least that
//     far, so the query is skipped.
//
// Determinism and the Workers contract: the ring-pass bounds are frozen
// after the list pass, a pure function of the round's components, so
// every query has the same answer however the queries are sharded; the
// workers write fixed slots and a serial merge offers them. Only offers
// that cannot be a component's minimum are pruned, so the round selects
// the same edges for every worker count — the same edges an unpruned
// query per sensor would select.
func msfBoruvka(g *metric.Grid, sensors []int, ar *roundArena, workers int) graph.Tree {
	m := len(sensors)
	g.SubIndexInto(&ar.gi, sensors)
	gi := &ar.gi
	gi.BuildLists(&ar.lists, boruvkaListK)
	nl := &ar.lists
	toRoot := ar.toRoot
	ar.uf.Reset(m + 1)
	uf := &ar.uf

	comp := grow(ar.comp, m)
	bestW := grow(ar.bestW, m+1)
	bestV := grow(ar.bestV, m+1)
	bestU := grow(ar.bestU, m+1)
	ring, nnU, nnD := ar.ring[:0], ar.nnU, ar.nnD
	eu, ev := ar.eu[:0], ar.ev[:0]
	var weight float64

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
		ring = ring[:0]
		for v := 0; v < m; v++ {
			c := comp[v]
			// Sensors in the super-root's component make no root offer:
			// that edge is internal there.
			if c != rootComp {
				w := toRoot[v]
				offer(c, w, int32(v), int32(m))
				offer(rootComp, w, int32(v), int32(m))
			}
			ids, ds := nl.Neighbors(v)
			j := 0
			for j < len(ids) && comp[ids[j]] == c {
				j++
			}
			if j < len(ids) {
				offer(c, ds[j], int32(v), ids[j])
			} else {
				ring = append(ring, int32(v))
			}
		}
		nnU, nnD = grow(nnU, len(ring)), grow(nnD, len(ring))
		shardRing(len(ring), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := ring[i]
				c := comp[v]
				bound := bestW[c]
				if v <= bestV[c] {
					bound = math.Nextafter(bound, math.Inf(1))
				}
				if nl.Radius(int(v)) >= bound {
					nnU[i] = -1
					continue
				}
				u, d := gi.NearestExcluding(int(v), comp, bound)
				nnU[i], nnD[i] = int32(u), d
			}
		})
		for i, v := range ring {
			if u := nnU[i]; u >= 0 {
				offer(comp[v], nnD[i], v, u)
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
	ar.comp, ar.bestW, ar.bestV, ar.bestU = comp, bestW, bestV, bestU
	ar.ring, ar.nnU, ar.nnD = ring, nnU, nnD
	ar.eu, ar.ev = eu, ev
	return orientBoruvka(ar, m, weight)
}

// shardRing runs query over [0, n) in at most workers contiguous shards
// of at least boruvkaShardMin queries each, one goroutine per shard past
// the first, and returns when all are done. query must write only the
// slots of its own range.
func shardRing(n, workers int, query func(lo, hi int)) {
	shards := min(workers, n/boruvkaShardMin)
	if shards <= 1 {
		query(0, n)
		return
	}
	chunk := (n + shards - 1) / shards
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			query(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	query(0, chunk)
	wg.Wait()
}

// orientBoruvka turns the m selected edges in ar.eu/ar.ev into the
// contracted tree's parent array, rooted at the super-root m, by one
// BFS. The parent array of a tree is unique, so traversal order does
// not matter beyond determinism of the walk itself.
func orientBoruvka(ar *roundArena, m int, weight float64) graph.Tree {
	eu, ev := ar.eu, ar.ev
	if len(eu) != m {
		panic(fmt.Sprintf("rooted: Borůvka selected %d edges for %d sensors", len(eu), m))
	}
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
	cur := grow(ar.bestV, m+1)
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
	queue := grow(ar.bestU, m+1)[:0]
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
	ar.off, ar.adj, ar.parent, ar.seen = off, adj, parent, seen
	return graph.Tree{Parent: parent, Weight: weight}
}

// unspannedMsg keeps orientBoruvka's panic message construction out of
// its spanning check's loop.
func unspannedMsg(v int) string {
	return fmt.Sprintf("rooted: Borůvka tree does not span sensor %d", v)
}

package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression, used by rooted's Borůvka MSF. Operations run in
// effectively O(α(n)) amortized time. Elements are int32 internally —
// the serve-layer index budget caps every ambient space well below
// MaxInt32, and the narrower parent array is 5 bytes/element instead of
// 9 in the million-sensor MSF arenas — but the API stays int like every
// other index in the repo.
type UnionFind struct {
	parent []int32
	rank   []uint8
	sets   int
}

// Reset reinitializes u to n singleton sets {0}, ..., {n-1}, reusing its
// backing arrays when they are large enough, for callers (the Borůvka MSF
// pool) that run union-find after union-find over same-order inputs. The
// zero UnionFind is empty until Reset.
func (u *UnionFind) Reset(n int) {
	if cap(u.parent) >= n {
		u.parent = u.parent[:n]
		u.rank = u.rank[:n]
	} else {
		u.parent = make([]int32, n)
		u.rank = make([]uint8, n)
	}
	for i := range u.parent {
		u.parent[i] = int32(i)
		u.rank[i] = 0
	}
	u.sets = n
}

// Find returns the representative of x's set.
func (u *UnionFind) Find(x int) int {
	v := int32(x)
	for u.parent[v] != v {
		u.parent[v] = u.parent[u.parent[v]] // path halving
		v = u.parent[v]
	}
	return int(v)
}

// Union merges the sets of x and y and reports whether they were distinct.
func (u *UnionFind) Union(x, y int) bool {
	rx, ry := int32(u.Find(x)), int32(u.Find(y))
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.sets--
	return true
}

// Sets returns the current number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

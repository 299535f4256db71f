package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
)

func randomSpace(r *rand.Rand, n int) metric.Euclidean {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return metric.NewEuclidean(pts)
}

// NewUnionFind returns a UnionFind over n singleton sets {0}, ..., {n-1}.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{}
	u.Reset(n)
	return u
}

// KruskalMSF computes a minimum spanning forest of the (possibly sparse,
// possibly disconnected) graph with n vertices and the given edges. It
// returns the chosen edges and their total weight. Ties are broken by the
// input order after a stable sort by weight, so results are deterministic.
// It is the independent oracle TestPrimMatchesKruskalOnRandomInstances
// holds PrimMST to.
func KruskalMSF(n int, edges []Edge) ([]Edge, float64) {
	sorted := append([]Edge(nil), edges...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].W < sorted[b].W })
	uf := NewUnionFind(n)
	var out []Edge
	var total float64
	for _, e := range sorted {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
			total += e.W
			if len(out) == n-1 {
				break
			}
		}
	}
	return out, total
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(5)
	if u.Sets() != 5 {
		t.Fatalf("initial sets = %d", u.Sets())
	}
	if !u.Union(0, 1) {
		t.Error("Union(0,1) should merge")
	}
	if u.Union(1, 0) {
		t.Error("Union(1,0) should be a no-op")
	}
	u.Union(2, 3)
	u.Union(0, 3)
	if u.Sets() != 2 {
		t.Errorf("sets = %d, want 2", u.Sets())
	}
	if u.Find(1) != u.Find(2) {
		t.Error("1 and 2 should be connected via chain")
	}
	if u.Find(0) == u.Find(4) {
		t.Error("4 should be isolated")
	}
}

func TestUnionFindManyUnions(t *testing.T) {
	const n = 1000
	u := NewUnionFind(n)
	for i := 1; i < n; i++ {
		u.Union(i-1, i)
	}
	if u.Sets() != 1 {
		t.Fatalf("sets = %d", u.Sets())
	}
	root := u.Find(0)
	for i := 1; i < n; i++ {
		if u.Find(i) != root {
			t.Fatalf("vertex %d has different root", i)
		}
	}
}

func TestPrimMSTTriangle(t *testing.T) {
	// Equilateral-ish: MST must pick the two shortest edges.
	sp, err := metric.NewMatrix([][]float64{
		{0, 1, 3},
		{1, 0, 1.5},
		{3, 1.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	tree := PrimMST(sp, 0)
	if !almost(tree.Weight, 2.5) {
		t.Errorf("MST weight = %g, want 2.5", tree.Weight)
	}
	if tree.Parent[0] != -1 {
		t.Errorf("root parent = %d", tree.Parent[0])
	}
}

func TestPrimMSTSingleVertex(t *testing.T) {
	sp := metric.NewEuclidean([]geom.Point{geom.Pt(1, 1)})
	tree := PrimMST(sp, 0)
	if tree.Weight != 0 || tree.Parent[0] != -1 {
		t.Errorf("single-vertex MST: weight=%g parent=%v", tree.Weight, tree.Parent)
	}
}

func TestPrimMSTPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"empty", func() { PrimMST(metric.NewEuclidean(nil), 0) }},
		{"bad root", func() { PrimMST(metric.NewEuclidean([]geom.Point{{}}), 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestPrimMatchesKruskalOnRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		sp := randomSpace(r, n)
		prim := PrimMST(sp, r.Intn(n))
		var edges []Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, Edge{U: i, V: j, W: sp.Dist(i, j)})
			}
		}
		_, kw := KruskalMSF(n, edges)
		if !almost(prim.Weight, kw) {
			t.Fatalf("trial %d: Prim %g != Kruskal %g", trial, prim.Weight, kw)
		}
	}
}

func TestMSTWeightLowerBoundsSpanningTrees(t *testing.T) {
	// Property: the MST weight never exceeds the weight of a random
	// spanning tree (random parent assignment in a random permutation).
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(30)
		sp := randomSpace(r, n)
		mst := PrimMST(sp, 0)
		perm := r.Perm(n)
		var w float64
		for i := 1; i < n; i++ {
			w += sp.Dist(perm[i], perm[r.Intn(i)])
		}
		if mst.Weight > w+1e-9 {
			t.Fatalf("trial %d: MST %g heavier than random tree %g", trial, mst.Weight, w)
		}
	}
}

func TestKruskalDisconnected(t *testing.T) {
	edges := []Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}}
	out, w := KruskalMSF(4, edges)
	if len(out) != 2 || !almost(w, 3) {
		t.Errorf("forest: %d edges weight %g", len(out), w)
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

package tsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

func randomSpace(r *rand.Rand, n int) metric.Euclidean {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return metric.NewEuclidean(pts)
}

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

// Validate checks that tour visits each of the vertices in want exactly
// once (and nothing else). A nil want means "all vertices of sp".
func Validate(sp metric.Space, tour []int, want []int) error {
	if want == nil {
		want = make([]int, sp.Len())
		for i := range want {
			want[i] = i
		}
	}
	if len(tour) != len(want) {
		return fmt.Errorf("tsp: tour has %d vertices, want %d", len(tour), len(want))
	}
	seen := make(map[int]bool, len(tour))
	for _, v := range tour {
		if v < 0 || v >= sp.Len() {
			return fmt.Errorf("tsp: vertex %d out of range [0,%d)", v, sp.Len())
		}
		if seen[v] {
			return fmt.Errorf("tsp: vertex %d visited twice", v)
		}
		seen[v] = true
	}
	for _, v := range want {
		if !seen[v] {
			return fmt.Errorf("tsp: vertex %d not visited", v)
		}
	}
	return nil
}

// DoubleTree builds a closed tour from a spanning tree of sp by the
// double-tree construction: double every tree edge, take an Euler circuit
// from root, shortcut repeated vertices. Under the triangle inequality
// the result costs at most twice the tree weight, hence at most twice the
// optimal tour (Theorem 1 of the paper). The returned tour starts at root.
// rooted.tourFromTree is the production path; this copy is the tests'
// reference.
func DoubleTree(sp metric.Space, tree graph.Tree, root int) []int {
	// Doubling the tree edges makes every degree even, so an Euler
	// circuit exists; the shortcut pass keeps first occurrences only.
	var doubled []graph.Edge
	for v, p := range tree.Parent {
		if p >= 0 {
			e := graph.Edge{U: v, V: p, W: sp.Dist(v, p)}
			doubled = append(doubled, e, e)
		}
	}
	walk, err := graph.EulerCircuit(len(tree.Parent), doubled, root)
	if err != nil {
		// A doubled spanning tree is always connected and even; an
		// error here means the tree was malformed, which is a
		// programming error, not an input condition.
		panic("tsp: DoubleTree on malformed tree: " + err.Error())
	}
	return graph.Shortcut(walk)
}

// MSTTour computes a minimum spanning tree of sp rooted at root and
// returns its double-tree tour: the end-to-end 2-approximate TSP used when
// q = 1.
func MSTTour(sp metric.Space, root int) []int {
	if sp.Len() == 0 {
		return nil
	}
	return DoubleTree(sp, graph.PrimMST(sp, root), root)
}

func TestCost(t *testing.T) {
	sp := metric.NewEuclidean([]geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1),
	})
	if c := Cost(sp, []int{0, 1, 2, 3}); !almost(c, 4) {
		t.Errorf("unit square tour cost = %g, want 4", c)
	}
	if c := Cost(sp, []int{0}); c != 0 {
		t.Errorf("single-vertex cost = %g", c)
	}
	if c := Cost(sp, nil); c != 0 {
		t.Errorf("empty cost = %g", c)
	}
	if c := Cost(sp, []int{0, 2}); !almost(c, 2*math.Sqrt2) {
		t.Errorf("two-vertex cost = %g", c)
	}
}

func TestValidate(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(1)), 5)
	if err := Validate(sp, []int{0, 1, 2, 3, 4}, nil); err != nil {
		t.Errorf("valid tour rejected: %v", err)
	}
	if err := Validate(sp, []int{0, 1, 1, 3, 4}, nil); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if err := Validate(sp, []int{0, 1, 2, 3}, nil); err == nil {
		t.Error("short tour accepted")
	}
	if err := Validate(sp, []int{0, 1, 9, 3, 4}, nil); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := Validate(sp, []int{2, 4}, []int{4, 2}); err != nil {
		t.Errorf("subset tour rejected: %v", err)
	}
	if err := Validate(sp, []int{2, 3}, []int{4, 2}); err == nil {
		t.Error("wrong subset accepted")
	}
}

func TestConstructorsProduceValidTours(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	constructors := map[string]func(metric.Space, int) []int{
		"MSTTour":         MSTTour,
		"NearestNeighbor": NearestNeighbor,
	}
	for name, build := range constructors {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				n := 1 + r.Intn(50)
				sp := randomSpace(r, n)
				start := r.Intn(n)
				tour := build(sp, start)
				if err := Validate(sp, tour, nil); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if tour[0] != start {
					t.Fatalf("trial %d: tour starts at %d, want %d", trial, tour[0], start)
				}
			}
		})
	}
}

func TestConstructorsEmptySpace(t *testing.T) {
	sp := metric.NewEuclidean(nil)
	if MSTTour(sp, 0) != nil || NearestNeighbor(sp, 0) != nil {
		t.Error("constructors on empty space should return nil")
	}
}

func TestDoubleTreeWithinTwiceTreeWeight(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(60)
		sp := randomSpace(r, n)
		root := r.Intn(n)
		tree := graph.PrimMST(sp, root)
		tour := DoubleTree(sp, tree, root)
		if err := Validate(sp, tour, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if c := Cost(sp, tour); c > 2*tree.Weight+1e-9 {
			t.Fatalf("trial %d: tour cost %g > 2x tree weight %g", trial, c, tree.Weight)
		}
	}
}

func TestMSTTourIsTwoApproximation(t *testing.T) {
	// Compare against Held-Karp on small instances: the double-tree
	// tour must cost at most twice the optimum (Theorem 1 with q=1).
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(9)
		sp := randomSpace(r, n)
		start := r.Intn(n)
		approx := Cost(sp, MSTTour(sp, start))
		_, opt, err := HeldKarp(sp, start)
		if err != nil {
			t.Fatal(err)
		}
		if approx > 2*opt+1e-9 {
			t.Fatalf("trial %d: double-tree %g > 2x optimum %g", trial, approx, opt)
		}
		if approx < opt-1e-9 {
			t.Fatalf("trial %d: approx %g beats optimum %g (optimum is wrong)", trial, approx, opt)
		}
	}
}

func TestHeldKarpSmallCases(t *testing.T) {
	sp := metric.NewEuclidean([]geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10),
	})
	tour, cost, err := HeldKarp(sp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(cost, 40) {
		t.Errorf("square optimum = %g, want 40", cost)
	}
	if err := Validate(sp, tour, nil); err != nil {
		t.Error(err)
	}
	if tour[0] != 0 {
		t.Errorf("tour starts at %d", tour[0])
	}
	if !almost(Cost(sp, tour), cost) {
		t.Errorf("reported cost %g != tour cost %g", cost, Cost(sp, tour))
	}
}

func TestHeldKarpDegenerate(t *testing.T) {
	empty := metric.NewEuclidean(nil)
	if tour, cost, err := HeldKarp(empty, 0); err != nil || tour != nil || cost != 0 {
		t.Errorf("empty: %v %g %v", tour, cost, err)
	}
	one := metric.NewEuclidean([]geom.Point{geom.Pt(1, 1)})
	tour, cost, err := HeldKarp(one, 0)
	if err != nil || len(tour) != 1 || cost != 0 {
		t.Errorf("single: %v %g %v", tour, cost, err)
	}
	big := randomSpace(rand.New(rand.NewSource(5)), MaxHeldKarp+1)
	if _, _, err := HeldKarp(big, 0); err == nil {
		t.Error("oversized instance should be rejected")
	}
}

func TestHeldKarpMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(5) // 3..7
		sp := randomSpace(r, n)
		_, opt, err := HeldKarp(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bf := bruteForceTSP(sp, 0); !almost(opt, bf) {
			t.Fatalf("trial %d (n=%d): HeldKarp %g != brute force %g", trial, n, opt, bf)
		}
	}
}

// bruteForceTSP enumerates all permutations.
func bruteForceTSP(sp metric.Space, start int) float64 {
	n := sp.Len()
	var others []int
	for v := 0; v < n; v++ {
		if v != start {
			others = append(others, v)
		}
	}
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(others) {
			tour := append([]int{start}, others...)
			if c := Cost(sp, tour); c < best {
				best = c
			}
			return
		}
		for i := k; i < len(others); i++ {
			others[k], others[i] = others[i], others[k]
			rec(k + 1)
			others[k], others[i] = others[i], others[k]
		}
	}
	rec(0)
	return best
}

func TestOptimalTourAtLeastHullPerimeter(t *testing.T) {
	// Cross-check two independent lower bounds: the Held-Karp optimum
	// can never undercut the convex-hull perimeter.
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
		_, opt, err := HeldKarp(metric.NewEuclidean(pts), 0)
		if err != nil {
			t.Fatal(err)
		}
		if hull := HullPerimeter(pts); opt < hull-1e-9 {
			t.Fatalf("trial %d: optimum %g below hull perimeter %g", trial, opt, hull)
		}
	}
}

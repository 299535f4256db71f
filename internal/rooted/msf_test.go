package rooted

import (
	"math"
	"math/rand"
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

// splitIndices partitions 0..n-1 into q depots and n-q sensors, shuffled.
func splitIndices(r *rand.Rand, n, q int) (depots, sensors []int) {
	perm := r.Perm(n)
	return perm[:q], perm[q:]
}

// bruteForceMSF enumerates every parent assignment: each sensor picks a
// parent among all other nodes; assignments forming a forest where every
// sensor's root is a depot are feasible. Exponential — tiny inputs only.
func bruteForceMSF(sp metric.Space, depots, sensors []int) float64 {
	isDepot := make(map[int]bool)
	for _, d := range depots {
		isDepot[d] = true
	}
	nodes := append(append([]int(nil), depots...), sensors...)
	best := math.Inf(1)
	parent := make(map[int]int)
	var rec func(k int, weight float64)
	rec = func(k int, weight float64) {
		if weight >= best {
			return
		}
		if k == len(sensors) {
			// Check acyclicity / rooting: walk each sensor up.
			for _, s := range sensors {
				v, steps := s, 0
				for !isDepot[v] {
					v = parent[v]
					steps++
					if steps > len(sensors)+1 {
						return // cycle
					}
				}
			}
			best = weight
			return
		}
		s := sensors[k]
		for _, p := range nodes {
			if p == s {
				continue
			}
			parent[s] = p
			rec(k+1, weight+sp.Dist(s, p))
		}
		delete(parent, s)
	}
	rec(0, 0)
	return best
}

func TestMSFMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(5) // 3..7 nodes total
		q := 1 + r.Intn(2) // 1..2 depots
		if q >= n {
			q = n - 1
		}
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		f := MSF(sp, depots, sensors)
		if err := f.Validate(sp, depots, sensors); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteForceMSF(sp, depots, sensors)
		if math.Abs(f.Weight-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: MSF weight %g != brute force %g", trial, f.Weight, want)
		}
	}
}

func TestMSFMatchesBruteForceOnExplicitMatrices(t *testing.T) {
	// Adversarial non-Euclidean metrics from random metric closures.
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(3)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := 1 + r.Float64()*9
				d[i][j], d[j][i] = v, v
			}
		}
		sp := metric.Closure(d)
		depots, sensors := splitIndices(r, n, 2)
		f := MSF(sp, depots, sensors)
		want := bruteForceMSF(sp, depots, sensors)
		if math.Abs(f.Weight-want) > 1e-6*(1+want) {
			t.Fatalf("trial %d: MSF %g != brute force %g", trial, f.Weight, want)
		}
	}
}

func TestMSFSingleDepotIsMST(t *testing.T) {
	// With q=1 the q-rooted MSF is an ordinary MST over all nodes.
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(30)
		sp := randomSpace(r, n)
		depots := []int{r.Intn(n)}
		var sensors []int
		for v := 0; v < n; v++ {
			if v != depots[0] {
				sensors = append(sensors, v)
			}
		}
		f := MSF(sp, depots, sensors)
		// MST weight via Prim on the same space.
		mstW := primWeight(sp)
		if math.Abs(f.Weight-mstW) > 1e-6*(1+mstW) {
			t.Fatalf("trial %d: 1-rooted MSF %g != MST %g", trial, f.Weight, mstW)
		}
	}
}

func primWeight(sp metric.Space) float64 {
	n := sp.Len()
	best := make([]float64, n)
	in := make([]bool, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	best[0] = 0
	var total float64
	for it := 0; it < n; it++ {
		u, bw := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !in[v] && best[v] < bw {
				u, bw = v, best[v]
			}
		}
		in[u] = true
		total += bw
		for v := 0; v < n; v++ {
			if !in[v] && sp.Dist(u, v) < best[v] {
				best[v] = sp.Dist(u, v)
			}
		}
	}
	return total
}

func TestMSFNoSensors(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(43)), 4)
	f := MSF(sp, []int{0, 1, 2, 3}, nil)
	if f.Weight != 0 {
		t.Errorf("weight = %g", f.Weight)
	}
	for _, d := range f.Depots {
		tree := f.TreeOf(d)
		if len(tree) != 1 || tree[0] != d {
			t.Errorf("depot %d tree = %v", d, tree)
		}
	}
}

func TestMSFCoversEverySensorExactlyOnce(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(80)
		q := 1 + r.Intn(6)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		f := MSF(sp, depots, sensors)
		seen := map[int]int{}
		for _, d := range depots {
			for _, v := range f.TreeOf(d) {
				seen[v]++
			}
		}
		for _, s := range sensors {
			if seen[s] != 1 {
				t.Fatalf("trial %d: sensor %d appears %d times", trial, s, seen[s])
			}
		}
		for _, d := range depots {
			if seen[d] != 1 {
				t.Fatalf("trial %d: depot %d appears %d times", trial, d, seen[d])
			}
		}
	}
}

func TestMSFWeightNoMoreThanNearestDepotStars(t *testing.T) {
	// Feasible alternative: connect every sensor to its nearest depot
	// directly (a star forest). The optimal forest can't be heavier.
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(50)
		q := 1 + r.Intn(4)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		f := MSF(sp, depots, sensors)
		var star float64
		for _, s := range sensors {
			best := math.Inf(1)
			for _, d := range depots {
				best = math.Min(best, sp.Dist(s, d))
			}
			star += best
		}
		if f.Weight > star+1e-9 {
			t.Fatalf("trial %d: MSF %g heavier than star forest %g", trial, f.Weight, star)
		}
	}
}

func TestMSFPanicsOnBadInput(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(59)), 4)
	cases := map[string]func(){
		"no depots":        func() { MSF(sp, nil, []int{0, 1}) },
		"duplicate depot":  func() { MSF(sp, []int{0, 0}, []int{1}) },
		"sensor is depot":  func() { MSF(sp, []int{0}, []int{0, 1}) },
		"duplicate sensor": func() { MSF(sp, []int{0}, []int{1, 1}) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			f()
		})
	}
}

func TestForestValidateCatchesCorruption(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(61)), 6)
	depots, sensors := []int{0, 1}, []int{2, 3, 4, 5}
	f := MSF(sp, depots, sensors)

	bad := f
	bad.Weight += 5
	if err := bad.Validate(sp, depots, sensors); err == nil {
		t.Error("wrong weight accepted")
	}

	bad2 := MSF(sp, depots, sensors)
	bad2.Parent[2], bad2.Parent[3] = 3, 2 // 2-cycle
	if err := bad2.Validate(sp, depots, sensors); err == nil {
		t.Error("cycle accepted")
	}

	bad3 := MSF(sp, depots, sensors)
	bad3.Parent[0] = 2 // depot no longer a root
	if err := bad3.Validate(sp, depots, sensors); err == nil {
		t.Error("non-root depot accepted")
	}

	bad4 := MSF(sp, depots, sensors)
	bad4.Parent[3] = -1 // sensor 3 roots its own tree
	wantErr(t, bad4.Validate(sp, depots, sensors), "not a depot")

	for _, p := range []int{sp.Len(), 99, NotInForest} {
		bad5 := MSF(sp, depots, sensors)
		bad5.Parent[5] = p // an ancestor outside the forest
		wantErr(t, bad5.Validate(sp, depots, sensors), "invalid ancestor")
	}
}

func TestTreeOfUnknownDepot(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(67)), 5)
	f := MSF(sp, []int{0}, []int{1, 2, 3, 4})
	if got := f.TreeOf(2); got != nil { // 2 is a sensor, not a root
		t.Errorf("TreeOf(sensor) = %v", got)
	}
	if got := f.TreeOf(-1); got != nil {
		t.Errorf("TreeOf(-1) = %v", got)
	}
}

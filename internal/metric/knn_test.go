package metric

//lint:file-allow floateq neighbour lists must reproduce brute-force distances bit-for-bit
import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// bruteNearest is the reference: all other vertices sorted by
// (distance, id), truncated to k.
func bruteNearest(d Dense, v, k int) ([]int32, []float64) {
	type pair struct {
		id int
		d  float64
	}
	var all []pair
	for u := 0; u < d.Len(); u++ {
		if u != v {
			all = append(all, pair{u, d.Dist(v, u)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	ids := make([]int32, k)
	ds := make([]float64, k)
	for i := 0; i < k; i++ {
		ids[i], ds[i] = int32(all[i].id), all[i].d
	}
	return ids, ds
}

func TestNearestListsMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 17, 60} {
		d := Materialize(NewEuclidean(randomPoints(r, n)))
		for _, k := range []int{0, 1, 3, 8, n - 1, n, n + 5} {
			if k < 0 {
				continue
			}
			nl := d.NearestLists(k)
			wantK := k
			if wantK > n-1 {
				wantK = n - 1
			}
			if wantK < 0 {
				wantK = 0
			}
			if nl.k != wantK {
				t.Fatalf("n=%d k=%d: k = %d, want %d", n, k, nl.k, wantK)
			}
			if nl.complete != (wantK >= n-1) {
				t.Fatalf("n=%d k=%d: complete = %v", n, k, nl.complete)
			}
			for v := 0; v < n; v++ {
				gotIDs, gotDs := nl.Neighbors(v)
				wantIDs, wantDs := bruteNearest(d, v, wantK)
				if len(gotIDs) != len(wantIDs) {
					t.Fatalf("n=%d k=%d v=%d: list length %d, want %d", n, k, v, len(gotIDs), len(wantIDs))
				}
				for i := range wantIDs {
					if gotIDs[i] != wantIDs[i] || gotDs[i] != wantDs[i] {
						t.Fatalf("n=%d k=%d v=%d entry %d: got (%d,%g), want (%d,%g)",
							n, k, v, i, gotIDs[i], gotDs[i], wantIDs[i], wantDs[i])
					}
				}
			}
		}
	}
}

// TestNearestListsTies pins the (distance, id) tie-break on a matrix
// with many equal distances.
func TestNearestListsTies(t *testing.T) {
	n := 10
	d := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.d[i*n+j] = float64((i+j)%3) + 1
			d.d[j*n+i] = d.d[i*n+j]
		}
	}
	nl := d.NearestLists(4)
	for v := 0; v < n; v++ {
		gotIDs, gotDs := nl.Neighbors(v)
		wantIDs, wantDs := bruteNearest(d, v, 4)
		for i := range wantIDs {
			if gotIDs[i] != wantIDs[i] || gotDs[i] != wantDs[i] {
				t.Fatalf("v=%d entry %d: got (%d,%g), want (%d,%g)",
					v, i, gotIDs[i], gotDs[i], wantIDs[i], wantDs[i])
			}
		}
	}
}

// TestNearestListsRadius checks the completeness contract the pruned
// sweeps rely on: every u with d(v,u) < Radius(v) is in v's list.
func TestNearestListsRadius(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	d := Materialize(NewEuclidean(randomPoints(r, 50)))
	for _, k := range []int{1, 5, 16, 49} {
		nl := d.NearestLists(k)
		for v := 0; v < d.Len(); v++ {
			rad := nl.Radius(v)
			if k >= d.Len()-1 {
				if !math.IsInf(rad, 1) {
					t.Fatalf("k=%d v=%d: complete list has finite radius %g", k, v, rad)
				}
				continue
			}
			ids, _ := nl.Neighbors(v)
			in := map[int32]bool{}
			for _, id := range ids {
				in[id] = true
			}
			for u := 0; u < d.Len(); u++ {
				if u != v && d.Dist(v, u) < rad && !in[int32(u)] {
					t.Fatalf("k=%d v=%d: vertex %d at %g < Radius %g missing from list",
						k, v, u, d.Dist(v, u), rad)
				}
			}
		}
	}
}

// TestNearestListsBuildReuse exercises the arena path: rebuilding into
// the same structure across different sizes must equal a fresh build.
func TestNearestListsBuildReuse(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var nl NearestLists
	for _, n := range []int{40, 12, 40, 25} {
		d := Materialize(NewEuclidean(randomPoints(r, n)))
		nl.Build(d, 8)
		fresh := d.NearestLists(8)
		for v := 0; v < n; v++ {
			gi, gd := nl.Neighbors(v)
			fi, fd := fresh.Neighbors(v)
			for i := range fi {
				if gi[i] != fi[i] || gd[i] != fd[i] {
					t.Fatalf("n=%d v=%d entry %d: reused build diverged", n, v, i)
				}
			}
			if nl.Radius(v) != fresh.Radius(v) {
				t.Fatalf("n=%d v=%d: reused Radius %g != fresh %g", n, v, nl.Radius(v), fresh.Radius(v))
			}
		}
	}
}

// TestMaterializeInto exercises the reusable materialization, including
// shrinking into previously used (dirty) storage.
func TestMaterializeInto(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var dst Dense
	for _, n := range []int{30, 9, 30, 1} {
		eu := NewEuclidean(randomPoints(r, n))
		MaterializeInto(eu, &dst)
		want := Materialize(eu)
		if dst.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, dst.Len())
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if dst.Dist(i, j) != want.Dist(i, j) {
					t.Fatalf("n=%d: Dist(%d,%d) = %g, want %g", n, i, j, dst.Dist(i, j), want.Dist(i, j))
				}
			}
		}
	}
	// Matrix and Dense sources take the row-copy paths.
	m, err := NewMatrix([][]float64{{0, 2, 5}, {2, 0, 4}, {5, 4, 0}})
	if err != nil {
		t.Fatal(err)
	}
	MaterializeInto(m, &dst)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if dst.Dist(i, j) != m.Dist(i, j) {
				t.Fatalf("matrix: Dist(%d,%d) = %g", i, j, dst.Dist(i, j))
			}
		}
	}
	src := Materialize(m)
	var dst2 Dense
	MaterializeInto(src, &dst2)
	if &dst2.d[0] == &src.d[0] {
		t.Fatal("MaterializeInto aliased its Dense input")
	}
	if dst2.Dist(0, 2) != 5 {
		t.Fatalf("dense copy: Dist(0,2) = %g", dst2.Dist(0, 2))
	}
}

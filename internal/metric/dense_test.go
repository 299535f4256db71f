package metric

//lint:file-allow floateq Dense is specified to agree bit-for-bit with the interface path it replaces
import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// randomPoints builds a deterministic scatter for property tests.
func randomPoints(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
	}
	return pts
}

// TestDenseAgreesWithEuclidean is the core property of the flat kernel:
// materializing a Euclidean space changes the representation, never the
// distances.
func TestDenseAgreesWithEuclidean(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 7, 40} {
		eu := NewEuclidean(randomPoints(r, n))
		d := Materialize(eu)
		if d.Len() != eu.Len() {
			t.Fatalf("n=%d: Len %d != %d", n, d.Len(), eu.Len())
		}
		for i := 0; i < n; i++ {
			row := d.Row(i)
			for j := 0; j < n; j++ {
				if got, want := d.Dist(i, j), eu.Dist(i, j); got != want {
					t.Fatalf("n=%d: Dist(%d,%d) = %g, want %g", n, i, j, got, want)
				}
				if row[j] != d.Dist(i, j) {
					t.Fatalf("n=%d: Row(%d)[%d] disagrees with Dist", n, i, j)
				}
			}
		}
	}
}

func TestDenseAgreesWithMatrix(t *testing.T) {
	m, err := NewMatrix([][]float64{
		{0, 2, 5},
		{2, 0, 4},
		{5, 4, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := Materialize(m)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d.Dist(i, j) != m.Dist(i, j) {
				t.Errorf("Dist(%d,%d) = %g, want %g", i, j, d.Dist(i, j), m.Dist(i, j))
			}
		}
	}
}

func TestDenseSymmetryAndDiagonal(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d := Materialize(NewEuclidean(randomPoints(r, 25)))
	for i := 0; i < d.Len(); i++ {
		if d.Dist(i, i) != 0 {
			t.Errorf("nonzero diagonal at %d: %g", i, d.Dist(i, i))
		}
		for j := 0; j < i; j++ {
			if d.Dist(i, j) != d.Dist(j, i) {
				t.Errorf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestMaterializeShortCircuits pins the documented aliasing contract:
// materializing a Dense (or *Dense) returns the same backing array, not
// a copy, so the sweep can hand one matrix to every algorithm for free.
func TestMaterializeShortCircuits(t *testing.T) {
	d := NewDense(3)
	d.d[1], d.d[3] = 7, 7 // d(0,1) = d(1,0)
	m := Materialize(d)
	if &m.d[0] != &d.d[0] {
		t.Error("Materialize(Dense) copied the backing array")
	}
	mp := Materialize(&d)
	if &mp.d[0] != &d.d[0] {
		t.Error("Materialize(*Dense) copied the backing array")
	}
}

func TestAsDense(t *testing.T) {
	d := NewDense(2)
	if _, ok := AsDense(d); !ok {
		t.Error("AsDense(Dense) = false")
	}
	if _, ok := AsDense(&d); !ok {
		t.Error("AsDense(*Dense) = false")
	}
	if _, ok := AsDense(NewEuclidean(nil)); ok {
		t.Error("AsDense(Euclidean) = true")
	}
}

// TestSubFlatten checks both Flatten paths (dense-parent gather and
// generic Dist fill) against direct Sub queries.
func TestSubFlatten(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	eu := NewEuclidean(randomPoints(r, 20))
	idx := []int{3, 17, 0, 9, 12}
	for _, parent := range []Space{eu, Materialize(eu)} {
		sub := NewSub(parent, idx)
		flat := sub.Flatten()
		if flat.Len() != len(idx) {
			t.Fatalf("Flatten Len = %d, want %d", flat.Len(), len(idx))
		}
		for i := range idx {
			for j := range idx {
				if got, want := flat.Dist(i, j), sub.Dist(i, j); got != want {
					t.Fatalf("parent %T: Flatten Dist(%d,%d) = %g, want %g", parent, i, j, got, want)
				}
			}
		}
	}
}

package metric

//lint:file-allow floateq literal matrices store exact values and views must return them bit-for-bit
import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestEuclidean(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(3, 0)}
	sp := NewEuclidean(pts)
	if sp.Len() != 3 {
		t.Fatalf("Len = %d", sp.Len())
	}
	if d := sp.Dist(0, 1); d != 5 {
		t.Errorf("Dist(0,1) = %g", d)
	}
	if d := sp.Dist(1, 2); d != 4 {
		t.Errorf("Dist(1,2) = %g", d)
	}
	if d := sp.Dist(2, 2); d != 0 {
		t.Errorf("Dist(2,2) = %g", d)
	}
}

func TestNewMatrixValid(t *testing.T) {
	m, err := NewMatrix([][]float64{
		{0, 1, 2},
		{1, 0, 1.5},
		{2, 1.5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 || m.Dist(0, 2) != 2 {
		t.Errorf("matrix wrap wrong: len=%d d02=%g", m.Len(), m.Dist(0, 2))
	}
}

func TestNewMatrixRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		d    [][]float64
	}{
		{"not square", [][]float64{{0, 1}, {1, 0, 2}}},
		{"nonzero diag", [][]float64{{1, 1}, {1, 0}}},
		{"asymmetric", [][]float64{{0, 1}, {2, 0}}},
		{"negative", [][]float64{{0, -1}, {-1, 0}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewMatrix(tc.d); err == nil {
				t.Errorf("NewMatrix accepted %s", tc.name)
			}
		})
	}
}

func TestSubSpace(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0), geom.Pt(3, 0)}
	sub := NewSub(NewEuclidean(pts), []int{3, 1})
	if sub.Len() != 2 {
		t.Fatalf("Len = %d", sub.Len())
	}
	if d := sub.Dist(0, 1); d != 2 {
		t.Errorf("sub Dist = %g, want 2 (between parent 3 and 1)", d)
	}
}

func TestMaterialize(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(0, 12)}
	sp := NewEuclidean(pts)
	m := Materialize(sp)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.Dist(i, j) != sp.Dist(i, j) {
				t.Errorf("Materialize mismatch at (%d,%d)", i, j)
			}
			if m.Dist(i, j) != m.Dist(j, i) {
				t.Errorf("materialized matrix asymmetric at (%d,%d)", i, j)
			}
		}
		if m.Dist(i, i) != 0 {
			t.Errorf("materialized matrix has nonzero diagonal at %d", i)
		}
	}
}

func TestClosureProducesMetric(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(10)
		d := make([][]float64, n)
		for i := range d {
			d[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := r.Float64() * 100
				d[i][j], d[j][i] = v, v
			}
		}
		c := Closure(d)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					if c.D[i][j] > c.D[i][k]+c.D[k][j]+1e-9 {
						t.Fatalf("trial %d: closure not a metric: d(%d,%d) > d(%d,%d)+d(%d,%d)",
							trial, i, j, i, k, k, j)
					}
				}
			}
		}
		// Closure never increases distances.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c.D[i][j] > d[i][j]+1e-12 {
					t.Fatalf("closure increased d(%d,%d)", i, j)
				}
			}
		}
	}
}

func TestClosureLeavesInputUntouched(t *testing.T) {
	d := [][]float64{
		{0, 10, 10},
		{10, 0, 1},
		{10, 1, 0},
	}
	orig := d[0][1]
	Closure(d)
	if d[0][1] != orig {
		t.Error("Closure mutated its input")
	}
}

func TestClosureWithInf(t *testing.T) {
	inf := math.Inf(1)
	d := [][]float64{
		{0, 1, inf},
		{1, 0, 1},
		{inf, 1, 0},
	}
	c := Closure(d)
	if c.D[0][2] != 2 {
		t.Errorf("closure through finite path = %g, want 2", c.D[0][2])
	}
}

package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDistBasics(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(3, 4), Pt(3, 4), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
		{"large", Pt(0, 0), Pt(1000, 1000), 1000 * math.Sqrt2},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.p.Dist(tc.q); !almostEq(got, tc.want, 1e-12) {
				t.Errorf("Dist(%v,%v) = %g, want %g", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a) //lint:allow floateq symmetry must hold bit-for-bit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistTriangleProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a, b, c := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by)), Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a, b := Pt(float64(ax), float64(ay)), Pt(float64(bx), float64(by))
		d2 := a.Dist2(b)
		return almostEq(d2, a.Dist(b)*a.Dist(b), 1e-9*(1+d2))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := Square(1000)
	if r.Width() != 1000 || r.Height() != 1000 { //lint:allow floateq accessors return stored extents unchanged
		t.Fatalf("Square dims: %g x %g", r.Width(), r.Height())
	}
	if c := r.Center(); c != Pt(500, 500) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Pt(0, 0)) || !r.Contains(Pt(1000, 1000)) || !r.Contains(Pt(500, 2)) {
		t.Error("Contains should include boundary and interior")
	}
	if r.Contains(Pt(-0.001, 500)) || r.Contains(Pt(500, 1000.001)) {
		t.Error("Contains should exclude exterior")
	}
	if d := r.Diagonal(); !almostEq(d, 1000*math.Sqrt2, 1e-9) {
		t.Errorf("Diagonal = %g", d)
	}
}

func TestRectClamp(t *testing.T) {
	r := Square(10)
	tests := []struct{ in, want Point }{
		{Pt(5, 5), Pt(5, 5)},
		{Pt(-3, 5), Pt(0, 5)},
		{Pt(12, -2), Pt(10, 0)},
		{Pt(12, 15), Pt(10, 10)},
	}
	for _, tc := range tests {
		if got := r.Clamp(tc.in); got != tc.want {
			t.Errorf("Clamp(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNearestIndex(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(10, 0), Pt(5, 5)}
	idx, d := NearestIndex(Pt(9, 1), pts)
	if idx != 1 {
		t.Errorf("nearest index = %d, want 1", idx)
	}
	if !almostEq(d, math.Sqrt2, 1e-12) {
		t.Errorf("nearest dist = %g", d)
	}
	idx, d = NearestIndex(Pt(0, 0), nil)
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty NearestIndex = (%d, %g)", idx, d)
	}
}

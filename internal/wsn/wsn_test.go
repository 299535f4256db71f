package wsn

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
)

func testNet(t *testing.T, n, q int, dist CycleDist) *Network {
	t.Helper()
	nw, err := Generate(rng.New(7).Split(uint64(n), uint64(q)), GenConfig{N: n, Q: q, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func defaultLinear() LinearDist { return LinearDist{TauMin: 1, TauMax: 50, Sigma: 2} }

func TestGenerateDefaults(t *testing.T) {
	nw := testNet(t, 100, 5, defaultLinear())
	if nw.N() != 100 || nw.Q() != 5 {
		t.Fatalf("N=%d Q=%d", nw.N(), nw.Q())
	}
	if nw.Field != geom.Square(1000) {
		t.Errorf("field = %v", nw.Field)
	}
	if nw.Base != geom.Pt(500, 500) {
		t.Errorf("base = %v", nw.Base)
	}
	if nw.Depots[0] != nw.Base {
		t.Errorf("depot 0 at %v, want co-located with base", nw.Depots[0])
	}
	if err := nw.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	r := rng.New(1)
	cases := []GenConfig{
		{N: 0, Q: 5, Dist: defaultLinear()},
		{N: 10, Q: 0, Dist: defaultLinear()},
		{N: 10, Q: 5},                                           // no dist
		{N: 10, Q: 5, Dist: defaultLinear(), Capacity: -1},      // bad capacity
		{N: 10, Q: 5, Dist: defaultLinear(), DepotPlacement: 9}, // bad placement
	}
	for i, cfg := range cases {
		if _, err := Generate(r, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{N: 50, Q: 5, Dist: defaultLinear()}
	a, err := Generate(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rng.New(9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sensors {
		if a.Sensors[i] != b.Sensors[i] {
			t.Fatalf("sensor %d differs across identical generations", i)
		}
	}
	c, err := Generate(rng.New(10), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Sensors {
		if a.Sensors[i].Pos == c.Sensors[i].Pos {
			same++
		}
	}
	if same == len(a.Sensors) {
		t.Error("different seeds produced identical topologies")
	}
}

func TestIndexConventions(t *testing.T) {
	nw := testNet(t, 20, 3, defaultLinear())
	pts := nw.Points()
	if len(pts) != 23 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, s := range nw.Sensors {
		if pts[i] != s.Pos {
			t.Fatalf("point %d != sensor %d position", i, i)
		}
	}
	for l, d := range nw.Depots {
		if pts[nw.DepotIndex(l)] != d {
			t.Fatalf("depot %d index mismatch", l)
		}
	}
	di := nw.DepotIndices()
	if len(di) != 3 || di[0] != 20 || di[2] != 22 {
		t.Errorf("depot indices = %v", di)
	}
	si := nw.SensorIndices()
	if len(si) != 20 || si[0] != 0 || si[19] != 19 {
		t.Errorf("sensor indices truncated: %v", si)
	}
	sp := nw.Space()
	if sp.Len() != 23 {
		t.Errorf("space len = %d", sp.Len())
	}
	if sp.Dist(0, nw.DepotIndex(0)) != nw.Sensors[0].Pos.Dist(nw.Depots[0]) { //lint:allow floateq the space must return the stored distance bit-for-bit
		t.Error("space distance mismatch")
	}
}

func TestCycleAccessors(t *testing.T) {
	nw := testNet(t, 30, 2, defaultLinear())
	cycles := nw.Cycles()
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, c := range cycles {
		mn = math.Min(mn, c)
		mx = math.Max(mx, c)
	}
	if nw.MinCycle() != mn || nw.MaxCycle() != mx { //lint:allow floateq accessors return stored extrema unchanged
		t.Errorf("MinCycle/MaxCycle = %g/%g, want %g/%g", nw.MinCycle(), nw.MaxCycle(), mn, mx)
	}
}

func TestSensorRate(t *testing.T) {
	s := Sensor{Capacity: 2, Cycle: 4}
	if math.Abs(s.Rate()-0.5) > 1e-12 {
		t.Errorf("rate = %g", s.Rate())
	}
}

func TestLinearDistProperties(t *testing.T) {
	d := defaultLinear()
	field := geom.Square(1000)
	base := field.Center()
	r := rng.New(3)
	// Mean at the base is TauMin; at a corner it is TauMax.
	if m := d.Mean(base, base, field); math.Abs(m-1) > 1e-12 {
		t.Errorf("mean at base = %g", m)
	}
	if m := d.Mean(geom.Pt(0, 0), base, field); math.Abs(m-50) > 1e-9 {
		t.Errorf("mean at corner = %g", m)
	}
	// Samples clamp to [TauMin, TauMax] and stay near the mean.
	for i := 0; i < 2000; i++ {
		pos := geom.Pt(r.Uniform(0, 1000), r.Uniform(0, 1000))
		v := d.Sample(r, pos, base, field)
		if v < d.TauMin || v > d.TauMax {
			t.Fatalf("sample %g outside [%g,%g]", v, d.TauMin, d.TauMax)
		}
		mean := d.Mean(pos, base, field)
		if v < mean-d.Sigma-1e-9 && v > d.TauMin {
			t.Fatalf("sample %g below mean-sigma %g without clamping", v, mean-d.Sigma)
		}
		if v > mean+d.Sigma+1e-9 && v < d.TauMax {
			t.Fatalf("sample %g above mean+sigma %g without clamping", v, mean+d.Sigma)
		}
	}
}

func TestLinearDistMonotoneInDistance(t *testing.T) {
	d := defaultLinear()
	field := geom.Square(1000)
	base := field.Center()
	prev := -1.0
	for step := 0; step <= 10; step++ {
		pos := geom.Pt(500+float64(step)*50, 500)
		m := d.Mean(pos, base, field)
		if m < prev {
			t.Fatalf("mean not monotone at step %d: %g < %g", step, m, prev)
		}
		prev = m
	}
}

func TestRandomDistProperties(t *testing.T) {
	d := RandomDist{TauMin: 1, TauMax: 50}
	field := geom.Square(1000)
	base := field.Center()
	r := rng.New(5)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := d.Sample(r, geom.Pt(0, 0), base, field)
		if v < 1 || v > 50 {
			t.Fatalf("sample %g out of range", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-25.5) > 0.5 {
		t.Errorf("sample mean = %g, want ~25.5", mean)
	}
	if math.Abs(d.Mean(geom.Pt(0, 0), base, field)-25.5) > 1e-12 {
		t.Errorf("Mean = %g", d.Mean(geom.Pt(0, 0), base, field))
	}
}

func TestLinearClampAtHighSigma(t *testing.T) {
	// sigma = 50: samples still clamped to [1, 50].
	d := LinearDist{TauMin: 1, TauMax: 50, Sigma: 50}
	field := geom.Square(1000)
	base := field.Center()
	r := rng.New(11)
	seenLow, seenHigh := false, false
	for i := 0; i < 5000; i++ {
		pos := geom.Pt(r.Uniform(0, 1000), r.Uniform(0, 1000))
		v := d.Sample(r, pos, base, field)
		if v < 1 || v > 50 {
			t.Fatalf("sample %g escaped clamp", v)
		}
		if v == 1 { //lint:allow floateq the clamp writes the exact bound
			seenLow = true
		}
		if v == 50 { //lint:allow floateq the clamp writes the exact bound
			seenHigh = true
		}
	}
	if !seenLow || !seenHigh {
		t.Errorf("high sigma should hit both clamps (low=%v high=%v)", seenLow, seenHigh)
	}
}

func TestDepotPlacements(t *testing.T) {
	cfg := GenConfig{N: 10, Q: 4, Dist: defaultLinear()}

	cfg.DepotPlacement = DepotUniform
	nw, err := Generate(rng.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Q() != 4 {
		t.Fatalf("uniform placement Q = %d", nw.Q())
	}

	cfg.DepotPlacement = DepotGrid
	nw, err = Generate(rng.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Q() != 4 {
		t.Fatalf("grid placement Q = %d", nw.Q())
	}
	// 4 depots on a 1000-square grid: cell centres of a 2x2 grid.
	want := []geom.Point{geom.Pt(250, 250), geom.Pt(750, 250), geom.Pt(250, 750), geom.Pt(750, 750)}
	for i, w := range want {
		if nw.Depots[i] != w {
			t.Errorf("grid depot %d = %v, want %v", i, nw.Depots[i], w)
		}
	}
}

func TestGridDepotsNonSquareCounts(t *testing.T) {
	for q := 1; q <= 12; q++ {
		pts := gridDepots(geom.Square(100), q)
		if len(pts) != q {
			t.Fatalf("q=%d: got %d depots", q, len(pts))
		}
		for _, p := range pts {
			if !geom.Square(100).Contains(p) {
				t.Fatalf("q=%d: depot %v outside field", q, p)
			}
		}
	}
}

func TestNetworkValidateCatchesCorruption(t *testing.T) {
	nw := testNet(t, 5, 2, defaultLinear())
	nw.Sensors[3].Cycle = -1
	if err := nw.Validate(); err == nil {
		t.Error("negative cycle accepted")
	}
	nw = testNet(t, 5, 2, defaultLinear())
	nw.Sensors[0].ID = 4
	if err := nw.Validate(); err == nil {
		t.Error("wrong ID accepted")
	}
	nw = testNet(t, 5, 2, defaultLinear())
	nw.Depots = nil
	if err := nw.Validate(); err == nil {
		t.Error("depot-less network accepted")
	}
}

func TestDistAccessors(t *testing.T) {
	lin := defaultLinear()
	if lin.Name() != "linear" || lin.Min() != 1 || lin.Max() != 50 { //lint:allow floateq accessors return stored constants
		t.Errorf("linear accessors: %s %g %g", lin.Name(), lin.Min(), lin.Max())
	}
	rnd := RandomDist{TauMin: 2, TauMax: 9}
	if rnd.Name() != "random" || rnd.Min() != 2 || rnd.Max() != 9 { //lint:allow floateq accessors return stored constants
		t.Errorf("random accessors: %s %g %g", rnd.Name(), rnd.Min(), rnd.Max())
	}
}

func TestMinMaxCyclePanicOnEmpty(t *testing.T) {
	nw := &Network{}
	for name, f := range map[string]func(){
		"MinCycle": func() { nw.MinCycle() },
		"MaxCycle": func() { nw.MaxCycle() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty network should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestValidateOutOfFieldNodes(t *testing.T) {
	nw := testNet(t, 5, 2, defaultLinear())
	nw.Sensors[1].Pos = geom.Pt(-5, 10)
	if err := nw.Validate(); err == nil {
		t.Error("out-of-field sensor accepted")
	}
	nw = testNet(t, 5, 2, defaultLinear())
	nw.Depots[1] = geom.Pt(5000, 5000)
	if err := nw.Validate(); err == nil {
		t.Error("out-of-field depot accepted")
	}
	nw = testNet(t, 5, 2, defaultLinear())
	nw.Sensors[2].Capacity = 0
	if err := nw.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
}

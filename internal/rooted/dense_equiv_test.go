package rooted

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// contracted adapts (sensors ∪ {super-root}) of sp to metric.Space:
// vertices 0..m-1 are the sensors, vertex m is the super-root at toRoot
// distances. graph.PrimMST over it, rooted at m, is the reference MST of
// the depot-contracted space that primContractedDense is held to.
type contracted struct {
	sp      metric.Space
	sensors []int
	toRoot  []float64
}

func (c contracted) Len() int { return len(c.sensors) + 1 }

func (c contracted) Dist(i, j int) float64 {
	r := len(c.sensors)
	switch {
	case i == r && j == r:
		return 0
	case i == r:
		return c.toRoot[j]
	case j == r:
		return c.toRoot[i]
	default:
		return c.sp.Dist(c.sensors[i], c.sensors[j])
	}
}

// requirePrimMatchesRef holds the Dense kernel to its reference, bit for
// bit, on the depot-contracted space of (depots, sensors) over sp: the
// nearest-depot scan is the plain first-minimum scan over sp.Dist, and
// primContractedDense on sp's Dense copy must pick graph.PrimMST's
// parents and Weight over contracted. Then MSF, on sp as given and on
// its Dense copy, must return the reference forest un-contracted.
func requirePrimMatchesRef(t testing.TB, label string, sp metric.Space, depots, sensors []int) {
	t.Helper()
	m := len(sensors)
	nearest := make([]int, m)
	toRoot := make([]float64, m)
	for i, s := range sensors {
		nearest[i], toRoot[i] = -1, math.Inf(1)
		for _, d := range depots {
			if w := sp.Dist(s, d); w < toRoot[i] {
				nearest[i], toRoot[i] = d, w
			}
		}
	}
	dense := metric.Materialize(sp)
	want := graph.PrimMST(contracted{sp: sp, sensors: sensors, toRoot: toRoot}, m)
	got := primContractedDense(dense, sensors, toRoot, &roundArena{})
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		t.Fatalf("%s: Prim weight %.17g, reference %.17g", label, got.Weight, want.Weight)
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: Prim parent[%d] = %d, reference %d", label, v, got.Parent[v], want.Parent[v])
		}
	}

	ref := make([]int, sp.Len())
	for i := range ref {
		ref[i] = NotInForest
	}
	for _, d := range depots {
		ref[d] = -1
	}
	for i, s := range sensors {
		if p := want.Parent[i]; p == m {
			ref[s] = nearest[i]
		} else {
			ref[s] = sensors[p]
		}
	}
	for _, in := range []struct {
		kind string
		sp   metric.Space
	}{{"as given", sp}, {"Dense", dense}} {
		f := MSF(in.sp, depots, sensors)
		if !reflect.DeepEqual(f.Parent, ref) {
			t.Fatalf("%s: MSF over the space %s: parents differ from the reference forest", label, in.kind)
		}
		if math.Float64bits(f.Weight) != math.Float64bits(want.Weight) {
			t.Fatalf("%s: MSF over the space %s: weight %.17g, reference %.17g", label, in.kind, f.Weight, want.Weight)
		}
	}
}

// auxShape is the shape of core.Var.patchStranded's auxiliary space:
// indices 0..len(group)-1 are sensors, Euclidean between each other, and
// the rest are roots, one per round, each at the distance from a sensor
// to the round's nearest member. Every round's members include all the
// depot points and roots are at distance 0 from each other, so a sensor
// whose nearest member is a depot is equally near every root: ties
// occur in the nearest-root scan as well as in Prim.
type auxShape struct {
	group  []geom.Point
	rounds [][]geom.Point
}

func (a auxShape) Len() int { return len(a.group) + len(a.rounds) }

func (a auxShape) Dist(i, j int) float64 {
	m := len(a.group)
	si, sj := i < m, j < m
	switch {
	case si && sj:
		return a.group[i].Dist(a.group[j])
	case si != sj:
		if sj {
			i, j = j, i
		}
		_, d := geom.NearestIndex(a.group[i], a.rounds[j-m])
		return d
	default:
		return 0
	}
}

// roots returns the auxShape's root and sensor index lists in the order
// core.Var passes them to MSF: rounds ascending, then sensors ascending.
func (a auxShape) roots() (roots, sensors []int) {
	m := len(a.group)
	for j := range a.rounds {
		roots = append(roots, m+j)
	}
	for i := 0; i < m; i++ {
		sensors = append(sensors, i)
	}
	return roots, sensors
}

// TestDenseAndEuclideanPathsAgree pins the bit-identical contract of the
// flat-kernel fast paths: every rooted construction must produce exactly
// the same structures whether it runs on the interface path (Euclidean)
// or on the devirtualized Dense path, because the sweep feeds algorithms
// a materialized matrix while older callers may not. MSF materializes
// any space that is neither Dense nor Grid, so its half of the check is
// against the reference Prim (requirePrimMatchesRef); the Tours and
// SplitTours halves still compare the generic refine and cost paths
// with the Dense ones.
//
// The lattice trials put integer points on a side-2..6 grid, so many
// distances tie and, once n exceeds side², points coincide (sensors with
// sensors and with depots). There the fringe Prim must break ties
// exactly as graph.PrimMST over the contracted space does.
func TestDenseAndEuclideanPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(40)
		q := 1 + r.Intn(4)
		eu := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		checkPathsAgree(t, fmt.Sprintf("random trial %d", trial), eu, depots, sensors)
	}
	for trial := 0; trial < 400; trial++ {
		side := 2 + r.Intn(5)
		n := 3 + r.Intn(40)
		q := 1 + r.Intn(min(4, n-1))
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(r.Intn(side)), float64(r.Intn(side)))
		}
		depots, sensors := splitIndices(r, n, q)
		checkPathsAgree(t, fmt.Sprintf("lattice trial %d (side %d, n %d)", trial, side, n),
			metric.NewEuclidean(pts), depots, sensors)
	}
}

func checkPathsAgree(t *testing.T, name string, eu metric.Euclidean, depots, sensors []int) {
	t.Helper()
	requirePrimMatchesRef(t, name, eu, depots, sensors)

	dense := metric.Materialize(eu)
	for _, opt := range []Options{{}, {Refine: true}} {
		se := Tours(eu, depots, sensors, opt)
		sd := Tours(dense, depots, sensors, opt)
		if !reflect.DeepEqual(se, sd) {
			t.Fatalf("%s opt %+v: tours differ between Euclidean and Dense", name, opt)
		}
		if err := sd.Validate(dense, depots, sensors); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// Tour splitting walks the same fast path; check it too.
	sol := Tours(dense, depots, sensors, Options{})
	budget := sol.Cost()/float64(2*len(depots)) + 1
	spe, err1 := SplitTours(eu, Tours(eu, depots, sensors, Options{}), budget)
	spd, err2 := SplitTours(dense, sol, budget)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: split errors diverge: %v vs %v", name, err1, err2)
	}
	if err1 == nil && !reflect.DeepEqual(spe, spd) {
		t.Fatalf("%s: split tours differ between Euclidean and Dense", name)
	}
}

// TestPrimMatchesReference holds the Dense kernel to graph.PrimMST on
// the auxiliary-space shape that core.Var's patch step hands MSF, with
// continuous coordinates and with points on a side-2..6 lattice, where
// sensors coincide with each other, with round members and with depots.
func TestPrimMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		side := 0
		if trial%4 != 0 {
			side = 2 + r.Intn(5)
		}
		pt := func() geom.Point {
			if side == 0 {
				return geom.Pt(r.Float64()*1000, r.Float64()*1000)
			}
			return geom.Pt(float64(r.Intn(side)), float64(r.Intn(side)))
		}
		depotPts := make([]geom.Point, 1+r.Intn(4))
		for i := range depotPts {
			depotPts[i] = pt()
		}
		var a auxShape
		for i := 1 + r.Intn(30); i > 0; i-- {
			a.group = append(a.group, pt())
		}
		// Round 0 is the emergency round, whose members are its patches
		// so far and the depots; later rounds also hold their classes.
		a.rounds = make([][]geom.Point, 1+r.Intn(6))
		for j := range a.rounds {
			for i := r.Intn(4 + 6*min(j, 1)); i > 0; i-- {
				a.rounds[j] = append(a.rounds[j], pt())
			}
			a.rounds[j] = append(a.rounds[j], depotPts...)
		}
		roots, sensors := a.roots()
		requirePrimMatchesRef(t, fmt.Sprintf("aux trial %d (side %d, %d sensors, %d rounds)",
			trial, side, len(a.group), len(a.rounds)), a, roots, sensors)
	}
}

// FuzzPrimMatchesReference decodes up to 64 points from the fuzz bytes,
// four bytes a point, optionally snapped to an 8×8 integer grid so ties
// and coincident points are common, and holds the Dense kernel and MSF
// to the reference Prim (requirePrimMatchesRef). Without aux it takes q
// from 1 to 8 of the points as depots. With aux it builds the auxShape
// of core.Var's patch step: the first one to four points are the
// depots, q rounds each hold all of them, every third remaining point
// joins a round's members and the rest are the sensors. The cap keeps
// an input's check well under a millisecond: uncapped, the fuzzer grew
// inputs to ~500 points, and minimizing one of them took the rest of a
// 30 s run.
func FuzzPrimMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"), uint8(0), false, false)
	f.Add(make([]byte, 64), uint8(7), false, true) // every point coincides
	// Snapped points, without and with the auxiliary shape, where Prim's
	// selection meets weight ties that only the lowest-index rule
	// settles as graph.PrimMST does: a kernel that breaks them any
	// other way fails both.
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(3), true, false)
	f.Add([]byte("pack my box with five dozen liquor jugs, then pack it again"), uint8(3), true, true)
	f.Fuzz(func(t *testing.T, data []byte, qRaw uint8, snap, aux bool) {
		var pts []geom.Point
		for ; len(data) >= 4 && len(pts) < 64; data = data[4:] {
			x, y := binary.LittleEndian.Uint16(data), binary.LittleEndian.Uint16(data[2:])
			if snap {
				x, y = x%8, y%8
			}
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
		q := int(qRaw)%8 + 1
		if !aux {
			if len(pts) <= q {
				return
			}
			depots, sensors := splitIndices(rand.New(rand.NewSource(int64(len(pts)))), len(pts), q)
			requirePrimMatchesRef(t, "points", metric.NewEuclidean(pts), depots, sensors)
			return
		}
		nd := 1 + int(qRaw/8)%4
		if len(pts) <= nd {
			return
		}
		a := auxShape{rounds: make([][]geom.Point, q)}
		for i, p := range pts[nd:] {
			if i%3 == 2 {
				a.rounds[(i/3)%q] = append(a.rounds[(i/3)%q], p)
			} else {
				a.group = append(a.group, p)
			}
		}
		for j := range a.rounds {
			a.rounds[j] = append(a.rounds[j], pts[:nd]...)
		}
		roots, sensors := a.roots()
		requirePrimMatchesRef(t, "aux", a, roots, sensors)
	})
}

package rooted

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/metric"
)

// TestDenseAndEuclideanPathsAgree pins the bit-identical contract of the
// flat-kernel fast paths: every rooted construction must produce exactly
// the same structures whether it runs on the interface path (Euclidean)
// or on the devirtualized Dense path, because the sweep feeds algorithms
// a materialized matrix while older callers may not.
//
// The lattice trials put integer points on a side-2..6 grid, so many
// distances tie and, once n exceeds side², points coincide (sensors with
// sensors and with depots). There the Dense path's fringe Prim must break
// ties exactly as graph.PrimMST over the contracted space does.
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
	dense := metric.Materialize(eu)
	fe := MSF(eu, depots, sensors)
	fd := MSF(dense, depots, sensors)
	if !reflect.DeepEqual(fe.Parent, fd.Parent) {
		t.Fatalf("%s: MSF parents differ between Euclidean and Dense", name)
	}
	if fe.Weight != fd.Weight { //lint:allow floateq Dense MSF must agree with the interface path bit-for-bit
		t.Fatalf("%s: MSF weight %v != %v", name, fe.Weight, fd.Weight)
	}

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

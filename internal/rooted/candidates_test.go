package rooted

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/metric"
	"repro/internal/tsp"
)

// TestBalanceToursListsMatchPlain pins the Dense balance search to the
// plain relocation oracle: same moves, same final solution, with nil
// lists (k == 0, every position scanned) and for every k including
// complete lists.
func TestBalanceToursListsMatchPlain(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	sc := tsp.NewScratch()
	for trial := 0; trial < 8; trial++ {
		n := 60 + r.Intn(90)
		q := 2 + r.Intn(4)
		eu := randomSpace(r, n)
		d := metric.Materialize(eu)
		depots, sensors := splitIndices(r, n, q)
		sol := Tours(d, depots, sensors, Options{})
		want := balanceToursOracle(d, sol, 0)
		for _, k := range []int{0, 2, 8, 16, n} {
			var nl *metric.NearestLists
			if k > 0 {
				nl = d.NearestLists(k)
			}
			got := balanceTours(d, nl, sol, 0, sc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: listed balance diverged from plain", trial, k)
			}
		}
		// The public entry auto-builds above the size floor and
		// materializes a non-Dense space; both must land on the same
		// solution too.
		for _, sp := range []metric.Space{d, eu} {
			if got := BalanceTours(sp, sol, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: public BalanceTours(%T) diverged from plain", trial, sp)
			}
		}
	}
}

// TestRefineWithNeighborsMatchesPlain pins the Options.Neighbors path
// of tour refinement (and cluster-first routing) to the plain sweeps.
func TestRefineWithNeighborsMatchesPlain(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	sc := tsp.NewScratch()
	for trial := 0; trial < 6; trial++ {
		n := 70 + r.Intn(130)
		q := 1 + r.Intn(3)
		d := metric.Materialize(randomSpace(r, n))
		depots, sensors := splitIndices(r, n, q)
		nl := d.NearestLists(metric.DefaultNearest)
		for _, m := range []Method{MethodDoubleTree, MethodClusterFirst} {
			var refineNs int64
			plain := Tours(d, depots, sensors, Options{Method: m, Refine: true})
			listed := Tours(d, depots, sensors, Options{
				Method: m, Refine: true,
				Neighbors: nl, Scratch: sc, RefineNs: &refineNs,
			})
			if !reflect.DeepEqual(plain, listed) {
				t.Fatalf("trial %d method %d: Neighbors path diverged", trial, m)
			}
			if refineNs <= 0 {
				t.Fatalf("trial %d method %d: RefineNs not credited", trial, m)
			}
		}
	}
}

// TestCheapestInsertionMatchesScan pins tsp.InsertionPoint (used by the
// balance relocation search) with candidate lists to its plain linear
// scan, across list sizes and tour subsets.
func TestCheapestInsertionMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	d := metric.Materialize(randomSpace(r, 120))
	sc := tsp.NewScratch()
	for trial := 0; trial < 40; trial++ {
		m := 3 + r.Intn(50)
		perm := r.Perm(120)
		verts, s := perm[:m], perm[m]
		wantPos, wantDelta := tsp.InsertionPoint(d, nil, verts, s, nil)
		for _, k := range []int{1, 4, 16, 119} {
			nl := d.NearestLists(k)
			gotPos, gotDelta := tsp.InsertionPoint(d, nl, verts, s, sc)
			if gotPos != wantPos || gotDelta != wantDelta { //lint:allow floateq candidate-list search must match brute force bit-for-bit
				t.Fatalf("trial %d k=%d: insertion (%d,%g), want (%d,%g)",
					trial, k, gotPos, gotDelta, wantPos, wantDelta)
			}
		}
	}
}

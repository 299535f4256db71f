package rooted

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/tsp"
)

func TestToursValidOnRandomInstances(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(80)
		q := 1 + r.Intn(6)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		sol := Tours(sp, depots, sensors, Options{})
		if err := sol.Validate(sp, depots, sensors); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestToursWithinTwiceForestWeight(t *testing.T) {
	// Algorithm 2's per-tree guarantee: total tour cost <= 2x the MSF
	// weight, which itself lower-bounds the optimal q-rooted TSP.
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(80)
		q := 1 + r.Intn(5)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		sol := Tours(sp, depots, sensors, Options{})
		if sol.Cost() > 2*sol.ForestWeight+1e-9 {
			t.Fatalf("trial %d: cost %g > 2x forest %g", trial, sol.Cost(), sol.ForestWeight)
		}
	}
}

// bruteForceQTSP finds the optimal q-rooted tours by trying every
// assignment of sensors to depots and solving each depot's TSP exactly.
func bruteForceQTSP(sp metric.Space, depots, sensors []int) float64 {
	q := len(depots)
	assign := make([]int, len(sensors))
	best := math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == len(sensors) {
			var total float64
			for d := 0; d < q; d++ {
				group := []int{depots[d]}
				for i, a := range assign {
					if a == d {
						group = append(group, sensors[i])
					}
				}
				if len(group) == 1 {
					continue
				}
				sub := metric.NewSub(sp, group)
				_, c, err := tsp.HeldKarp(sub, 0)
				if err != nil {
					panic(err)
				}
				total += c
				if total >= best {
					return
				}
			}
			if total < best {
				best = total
			}
			return
		}
		for d := 0; d < q; d++ {
			assign[k] = d
			rec(k + 1)
		}
	}
	rec(0)
	return best
}

func TestToursTwoApproximationAgainstOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 25; trial++ {
		n := 4 + r.Intn(5) // total nodes 4..8
		q := 1 + r.Intn(2)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		sol := Tours(sp, depots, sensors, Options{})
		opt := bruteForceQTSP(sp, depots, sensors)
		if sol.Cost() > 2*opt+1e-9 {
			t.Fatalf("trial %d: approx %g > 2x optimal %g", trial, sol.Cost(), opt)
		}
		if sol.Cost() < opt-1e-9 {
			t.Fatalf("trial %d: approx %g beats optimal %g — brute force is wrong", trial, sol.Cost(), opt)
		}
		if sol.ForestWeight > opt+1e-9 {
			t.Fatalf("trial %d: forest weight %g is not a lower bound on optimal %g", trial, sol.ForestWeight, opt)
		}
	}
}

func TestToursRefinementOnlyImproves(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 20; trial++ {
		n := 10 + r.Intn(60)
		q := 1 + r.Intn(4)
		sp := randomSpace(r, n)
		depots, sensors := splitIndices(r, n, q)
		plain := Tours(sp, depots, sensors, Options{})
		refined := Tours(sp, depots, sensors, Options{Refine: true})
		if refined.Cost() > plain.Cost()+1e-9 {
			t.Fatalf("trial %d: refined %g > plain %g", trial, refined.Cost(), plain.Cost())
		}
		if err := refined.Validate(sp, depots, sensors); err != nil {
			t.Fatalf("trial %d: refined invalid: %v", trial, err)
		}
	}
}

func TestToursEmptySensorSet(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(89)), 3)
	sol := Tours(sp, []int{0, 1, 2}, nil, Options{})
	if sol.Cost() != 0 {
		t.Errorf("cost = %g", sol.Cost())
	}
	if len(sol.Tours) != 3 {
		t.Fatalf("tours = %d", len(sol.Tours))
	}
	for _, tour := range sol.Tours {
		if len(tour.Stops) != 0 || tour.Cost != 0 {
			t.Errorf("empty tour has stops %v cost %g", tour.Stops, tour.Cost)
		}
	}
}

func TestTourVertices(t *testing.T) {
	tour := Tour{Depot: 7, Stops: []int{1, 2, 3}}
	got := tour.Vertices()
	want := []int{7, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("Vertices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vertices = %v, want %v", got, want)
		}
	}
}

func TestSolutionValidateCatchesProblems(t *testing.T) {
	sp := randomSpace(rand.New(rand.NewSource(97)), 8)
	depots, sensors := []int{0, 1}, []int{2, 3, 4, 5, 6, 7}
	sol := Tours(sp, depots, sensors, Options{})

	missing := Solution{Tours: sol.Tours[:1], ForestWeight: sol.ForestWeight}
	if err := missing.Validate(sp, depots, sensors); err == nil {
		t.Error("missing depot tour accepted")
	}

	var wrongCost Solution
	wrongCost.Tours = append(wrongCost.Tours, sol.Tours...)
	wrongCost.Tours[0] = Tour{Depot: wrongCost.Tours[0].Depot, Stops: wrongCost.Tours[0].Stops, Cost: wrongCost.Tours[0].Cost + 10}
	if err := wrongCost.Validate(sp, depots, sensors); err == nil {
		t.Error("wrong recorded cost accepted")
	}

	if err := sol.Validate(sp, depots, sensors[:3]); err == nil {
		t.Error("extra covered sensors beyond requested set accepted")
	}

	part := Tours(sp, depots, sensors[:5], Options{})
	wantErr(t, part.Validate(sp, depots, sensors), "not covered")

	if empty := Tours(sp, depots, nil, Options{}); empty.Validate(sp, depots, nil) != nil {
		t.Error("empty cover of no sensors rejected")
	}

	twice := withStops(sol, 0, func(stops []int) []int { return append(stops, stops[0]) })
	wantErr(t, twice.Validate(sp, depots, sensors), "visited by two tours")

	for _, v := range []int{-1, sp.Len(), 99} {
		outside := withStops(sol, 1, func(stops []int) []int { return append(stops, v) })
		wantErr(t, outside.Validate(sp, depots, sensors), "out of range")
	}
}

// withStops copies sol with tour ti's stops rewritten by edit. The
// recorded cost is kept: Validate checks a tour's stops before its cost.
func withStops(sol Solution, ti int, edit func([]int) []int) Solution {
	out := Solution{Tours: append([]Tour(nil), sol.Tours...), ForestWeight: sol.ForestWeight}
	out.Tours[ti].Stops = edit(append([]int(nil), sol.Tours[ti].Stops...))
	return out
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("error containing %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestToursFromForestMatchesTours(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	sp := randomSpace(r, 40)
	depots, sensors := splitIndices(r, 40, 3)
	f := MSF(sp, depots, sensors)
	a := Tours(sp, depots, sensors, Options{})
	b := toursFromForest(sp, f, Options{}, new(roundArena))
	if math.Abs(a.Cost()-b.Cost()) > 1e-9 {
		t.Errorf("Tours %g != toursFromForest %g", a.Cost(), b.Cost())
	}
}

func TestToursDeterministic(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	sp1 := randomSpace(r1, 50)
	sp2 := randomSpace(r2, 50)
	d1, s1 := splitIndices(r1, 50, 4)
	d2, s2 := splitIndices(r2, 50, 4)
	a := Tours(sp1, d1, s1, Options{})
	b := Tours(sp2, d2, s2, Options{})
	if a.Cost() != b.Cost() { //lint:allow floateq identical inputs must give bit-identical tours
		t.Errorf("identical inputs gave different costs: %g vs %g", a.Cost(), b.Cost())
	}
	for i := range a.Tours {
		if len(a.Tours[i].Stops) != len(b.Tours[i].Stops) {
			t.Fatalf("tour %d stop counts differ", i)
		}
		for j := range a.Tours[i].Stops {
			if a.Tours[i].Stops[j] != b.Tours[i].Stops[j] {
				t.Fatalf("tour %d stop %d differs", i, j)
			}
		}
	}
}

package tsp

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metric"
)

// refiner pairs a Dense list kernel with its full-sweep oracle.
type refiner struct {
	name  string
	lists func(d metric.Dense, nl *metric.NearestLists, tour []int, maxRounds int, sc *Scratch) ([]int, int)
	plain func(d metric.Dense, tour []int, maxRounds int) ([]int, int)
}

func refiners() []refiner {
	return []refiner{
		{"TwoOpt", TwoOptLists, func(d metric.Dense, tour []int, r int) ([]int, int) { return twoOpt(d, tour, r) }},
		{"OrOpt", OrOptLists, func(d metric.Dense, tour []int, r int) ([]int, int) { return orOpt(d, tour, r) }},
	}
}

// randomTour is a random permutation of [0,n) with vertex 0 first (the
// depot contract every refiner preserves).
func randomTour(r *rand.Rand, n int) []int {
	tour := r.Perm(n)
	for i, v := range tour {
		if v == 0 {
			tour[0], tour[i] = tour[i], tour[0]
			break
		}
	}
	return tour
}

// listsFor returns d's k-nearest candidate lists, or nil — the kernels'
// examine-every-position mode — for k == 0.
func listsFor(d metric.Dense, k int) *metric.NearestLists {
	if k == 0 {
		return nil
	}
	return d.NearestLists(k)
}

// TestCandidateListsMatchFullSweep is the tentpole property: on random
// Euclidean instances, for every refiner, nil lists and every k
// (including k >= n where the lists are complete and the radius
// fallback never fires, and tiny k where it fires constantly) and
// several round budgets, the list kernel returns the identical tour and
// move count as the full-sweep oracle.
func TestCandidateListsMatchFullSweep(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sc := NewScratch() // shared across all calls: exercises arena reuse
	for _, n := range []int{5, 8, 23, 77, 200} {
		d := metric.Materialize(randomSpace(r, n))
		for _, k := range []int{0, 1, 2, 4, 8, 16, n - 1, n + 10} {
			nl := listsFor(d, k)
			for _, rounds := range []int{1, 3, -1} {
				for _, rf := range refiners() {
					base := randomTour(r, n)
					want := append([]int(nil), base...)
					got := append([]int(nil), base...)
					want, wantMoves := rf.plain(d, want, rounds)
					got, gotMoves := rf.lists(d, nl, got, rounds, sc)
					if gotMoves != wantMoves {
						t.Fatalf("%s n=%d k=%d rounds=%d: %d moves, full sweep made %d",
							rf.name, n, k, rounds, gotMoves, wantMoves)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s n=%d k=%d rounds=%d: tours diverge at %d:\n got %v\nwant %v",
								rf.name, n, k, rounds, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCandidateListsSubsetTour covers the rooted use case: the tour
// visits only a subset of the space's vertices (one depot's component),
// with the lists built over the full space.
func TestCandidateListsSubsetTour(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := metric.Materialize(randomSpace(r, 150))
	nl := d.NearestLists(12)
	sc := NewScratch()
	for trial := 0; trial < 20; trial++ {
		m := 5 + r.Intn(60)
		perm := r.Perm(150)[:m]
		for _, rf := range refiners() {
			want := append([]int(nil), perm...)
			got := append([]int(nil), perm...)
			want, wantMoves := rf.plain(d, want, -1)
			got, gotMoves := rf.lists(d, nl, got, -1, sc)
			if gotMoves != wantMoves {
				t.Fatalf("%s trial %d: %d moves, want %d", rf.name, trial, gotMoves, wantMoves)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s trial %d: tours diverge", rf.name, trial)
				}
			}
		}
	}
}

// TestPublicEntriesAutoBuild checks that the public TwoOpt/OrOpt return
// the full-sweep oracle's results on both sides of the auto-build
// threshold, and on a non-Dense space, which they flatten over the
// tour's vertices before refining on local indices.
func TestPublicEntriesAutoBuild(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	type entry struct {
		name   string
		public func(sp metric.Space, tour []int, maxRounds int) ([]int, int)
		plain  func(sp metric.Space, tour []int, maxRounds int) ([]int, int)
	}
	entries := []entry{
		{"TwoOpt", TwoOpt, twoOpt[metric.Space]},
		{"OrOpt", OrOpt, orOpt[metric.Space]},
	}
	// Above the floor the tour spans the space; below it the tour is a
	// subset, so the flattened local indices differ from the space's.
	for _, c := range []struct{ n, m int }{{autoListMinTour + 40, autoListMinTour + 40}, {90, 30}} {
		eu := randomSpace(r, c.n)
		d := metric.Materialize(eu)
		base := r.Perm(c.n)[:c.m]
		for _, sp := range []metric.Space{d, eu} {
			for _, e := range entries {
				want, wantMoves := e.plain(sp, append([]int(nil), base...), -1)
				got, gotMoves := e.public(sp, append([]int(nil), base...), -1)
				if gotMoves != wantMoves {
					t.Fatalf("%s %T n=%d m=%d: %d moves via public entry, want %d",
						e.name, sp, c.n, c.m, gotMoves, wantMoves)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %T n=%d m=%d: public entry diverged from full sweep",
							e.name, sp, c.n, c.m)
					}
				}
			}
		}
	}
}

// TestNearestListsSharedAcrossWorkers runs the two candidate-list
// refiners concurrently against one shared NearestLists (and one shared
// Dense), each goroutine with its own tour and Scratch — the sharing
// contract the experiment sweep relies on. Run under -race this is the
// data-race check the lists' read-only contract promises.
func TestNearestListsSharedAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	d := metric.Materialize(randomSpace(r, 120))
	nl := d.NearestLists(metric.DefaultNearest)

	const workers = 8
	tours := make([][]int, workers)
	wants := make([][]int, workers)
	for w := range tours {
		tours[w] = randomTour(rand.New(rand.NewSource(int64(100+w))), 120)
		ref := append([]int(nil), tours[w]...)
		ref, _ = twoOpt(d, ref, -1)
		ref, _ = orOpt(d, ref, 2)
		wants[w] = ref
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewScratch()
			got := append([]int(nil), tours[w]...)
			got, _ = TwoOptLists(d, nl, got, -1, sc)
			got, _ = OrOptLists(d, nl, got, 2, sc)
			tours[w] = got
		}(w)
	}
	wg.Wait()
	for w := range tours {
		for i := range wants[w] {
			if tours[w][i] != wants[w][i] {
				t.Fatalf("worker %d: concurrent refinement diverged from sequential", w)
			}
		}
	}
}

package rooted

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/metric"
	"repro/internal/tsp"
)

// Options control the q-rooted TSP construction.
type Options struct {
	// Method selects the construction; the zero value is the paper's
	// Algorithm 2 (MethodDoubleTree).
	Method Method
	// Refine applies 2-opt and Or-opt local search to each tour after
	// the double-tree construction. The paper's algorithm does not
	// refine (Refine=false reproduces Algorithm 2 verbatim); refinement
	// only ever shortens tours, so the 2-approximation guarantee is
	// preserved. Used by the tour-construction ablation.
	// MethodClusterFirst always refines its routes.
	Refine bool
	// Neighbors optionally supplies candidate lists built from the same
	// Dense space the solver runs on (metric.Dense.NearestLists);
	// refinement and balancing then use the exact candidate-list sweeps
	// — bit-identical results, far fewer distance evaluations. Harnesses
	// that solve many instances over one space build the lists once and
	// share them read-only. Ignored when the space is not Dense.
	Neighbors *metric.NearestLists
	// Scratch optionally supplies a reusable arena for the candidate-
	// list sweeps, taking steady-state refinement allocations to zero.
	// Must not be shared between concurrent solver calls.
	Scratch *tsp.Scratch
	// RefineNs, when non-nil, is atomically incremented by the
	// nanoseconds spent in local-search refinement, so harnesses can
	// split planning time into construction and refinement phases.
	RefineNs *int64
	// Workers, when > 1, builds (and refines) the q tours of a solution
	// concurrently on that many goroutines. Tours are independent and
	// land in fixed depot-order slots, and every worker gets its own
	// tsp.Scratch, so the Solution is byte-identical to the serial
	// result — TestIntraPlanParallelDeterminism pins that under -race.
	// 0 or 1 means serial; the shared Scratch above is only used then.
	Workers int
}

// refineRounds bounds the local-search sweeps of each refined tour.
const refineRounds = 8

// refine runs the 2-opt + Or-opt polish on one tour, through the
// candidate-list sweeps when lists are available, and credits the time
// to RefineNs. All paths produce bit-identical tours (see
// internal/tsp/candidates.go).
func (o Options) refine(sp metric.Space, tour []int) []int {
	var t0 time.Time
	if o.RefineNs != nil {
		t0 = time.Now() //lint:allow walltime RefineNs diagnostic timing, never feeds results
	}
	if d, ok := metric.AsDense(sp); ok && o.Neighbors != nil {
		tour, _ = tsp.TwoOptLists(d, o.Neighbors, tour, refineRounds, o.Scratch)
		tour, _ = tsp.OrOptLists(d, o.Neighbors, tour, refineRounds, o.Scratch)
	} else if g, ok := metric.AsGrid(sp); ok {
		// On-grid candidate-list sweeps: no per-tour flatten, no length
		// ceiling — every tour is refined, even at n=1M where the former
		// gridRefineCap skip would have left long tours construction-only.
		tour = tsp.RefineTourGrid(g, tour, refineRounds, o.Scratch)
	} else {
		tour, _ = tsp.TwoOpt(sp, tour, refineRounds)
		tour, _ = tsp.OrOpt(sp, tour, refineRounds)
	}
	if o.RefineNs != nil {
		atomic.AddInt64(o.RefineNs, int64(time.Since(t0))) //lint:allow walltime RefineNs diagnostic timing, never feeds results
	}
	return tour
}

// Tour is one closed charging tour: the depot vertex followed by the
// sensor vertices in visiting order; the return edge to the depot is
// implicit. Cost is the tour's total length.
type Tour struct {
	Depot int
	Stops []int
	Cost  float64
}

// Vertices returns the tour as a single vertex sequence starting with the
// depot, suitable for tsp.Cost.
func (t Tour) Vertices() []int {
	out := make([]int, 0, len(t.Stops)+1)
	out = append(out, t.Depot)
	out = append(out, t.Stops...)
	return out
}

// Solution is a set of q rooted tours covering the requested sensors.
type Solution struct {
	Tours []Tour
	// ForestWeight is the weight of the underlying q-rooted MSF, a
	// certified lower bound on the optimal q-rooted TSP cost; the
	// solution's Cost() is guaranteed to be at most twice it.
	ForestWeight float64
}

// Cost returns the total length of all tours.
func (s Solution) Cost() float64 {
	var sum float64
	for _, t := range s.Tours {
		sum += t.Cost
	}
	return sum
}

// Tours computes a 2-approximate solution to the q-rooted TSP problem
// over sp (Algorithm 2 of the paper): an exact q-rooted MSF is computed
// by MSF, then each tree is doubled into an Euler circuit and shortcut
// into a closed tour rooted at its depot. Empty trees yield tours with no
// stops and zero cost, matching the paper's convention V(C_l) = {r_l},
// w(C_l) = 0.
func Tours(sp metric.Space, depots, sensors []int, opt Options) Solution {
	var sol Solution
	if opt.Method == MethodClusterFirst {
		sol = clusterFirst(sp, depots, sensors, opt)
	} else {
		// Workers flows into the MSF too: the Borůvka grid path shards
		// its per-round neighbor queries, byte-identically to serial.
		ar := roundArenaPool.Get().(*roundArena)
		f := msf(sp, depots, sensors, opt.Workers, ar)
		sol = toursFromForest(sp, f, opt, ar)
		roundArenaPool.Put(ar)
	}
	if check.Enabled {
		if err := sol.Validate(sp, depots, sensors); err != nil {
			panic("rooted: Tours postcondition: " + err.Error())
		}
	}
	return sol
}

// toursFromForest converts a q-rooted forest into rooted closed tours,
// one per depot, on a round arena: ar holds the forest's child lists
// and, on the serial path, every tree's working buffers, so only the
// Tours slice and each tour's Stops are allocated.
//
// With opt.Workers > 1 the depot trees are built and refined
// concurrently: workers claim depot indices from an atomic counter,
// each with a private tsp.Scratch and tour arena, and write finished
// tours into their fixed depot-order slots. Tour construction is a pure
// function of (sp, forest, depot, options minus Scratch), so the merged
// Solution is byte-identical to the serial one regardless of scheduling.
func toursFromForest(sp metric.Space, f Forest, opt Options, ar *roundArena) Solution {
	sol := Solution{ForestWeight: f.Weight, Tours: make([]Tour, len(f.Depots))}
	off, kids := f.childrenCSR(ar)
	workers := min(opt.Workers, len(f.Depots))
	if workers <= 1 {
		for li, d := range f.Depots {
			sol.Tours[li] = depotTour(sp, f, off, kids, d, opt, &ar.tourArena)
		}
		return sol
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Neither the caller's Scratch nor the tour buffers may be
			// shared across workers; each goroutine takes its own of
			// both for the whole claim loop. The child lists in ar are
			// only read.
			o := opt
			o.Scratch = &tsp.Scratch{}
			ta := tourArenaPool.Get().(*tourArena)
			defer tourArenaPool.Put(ta)
			for {
				li := int(next.Add(1)) - 1
				if li >= len(f.Depots) {
					return
				}
				sol.Tours[li] = depotTour(sp, f, off, kids, f.Depots[li], o, ta)
			}
		}()
	}
	wg.Wait()
	return sol
}

// depotTour builds the closed tour of depot's tree in f, whose child
// lists are off and kids, on ta's buffers.
func depotTour(sp metric.Space, f Forest, off, kids []int32, depot int, opt Options, ta *tourArena) Tour {
	members, lparent := f.treeFrom(off, kids, depot, ta)
	t := Tour{Depot: depot}
	if len(members) > 1 {
		t.Stops = tourFromTree(sp, members, lparent, depot, opt, ta)
		t.Cost = tourCost(sp, depot, t.Stops)
	}
	return t
}

// tourCost is tsp.Cost of the tour depot, stops...: the same edges
// summed in the same order, without building that vertex sequence.
//
//lint:allow hotdist one Dist per tour edge, as in tsp.Cost
func tourCost(sp metric.Space, depot int, stops []int) float64 {
	var sum float64
	last := depot
	for _, s := range stops {
		sum += sp.Dist(last, s)
		last = s
	}
	return sum + sp.Dist(last, depot)
}

// tourFromTree converts one forest component into a closed tour, by
// edge doubling (Algorithm 2) or the Christofides construction, and
// returns its stops in a slice of their own. The tree arrives in
// component-local index space (members preorder, with lparent the local
// parent pointers from treeFrom): the Euler walk and shortcut run
// entirely on local indices in ta's buffers, so their O(V) working
// arrays are sized by the tour's m members, not sp.Len(), and reused
// across tours. Relabeling is a bijection and the doubled edges keep
// their order, so the walk — and therefore the tour — is the global-
// index walk relabeled, bit for bit.
func tourFromTree(sp metric.Space, members []int, lparent []int32, depot int, opt Options, ta *tourArena) []int {
	var tour []int
	if opt.Method == MethodChristofides {
		sub := make([]int, sp.Len())
		for i := range sub {
			sub[i] = -1
		}
		for li, v := range members {
			if p := lparent[li]; p >= 0 {
				sub[v] = members[p]
			}
		}
		tour, _ = tsp.ChristofidesTour(sp, graph.Tree{Parent: sub}, depot)
	} else {
		// EulerCircuit never reads edge weights, so the doubled edges
		// carry endpoints only — no Dist calls here. members[0] is the
		// depot (preorder root), the only member without a parent.
		doubled := ta.doubled[:0]
		for li := 1; li < len(members); li++ {
			e := graph.Edge{U: li, V: int(lparent[li])}
			doubled = append(doubled, e, e)
		}
		ta.doubled = doubled
		walk, err := ta.euler.Circuit(len(members), doubled, 0)
		if err != nil {
			panic("rooted: doubled tree not Eulerian: " + err.Error())
		}
		local := ta.euler.Shortcut(walk)
		tour = grow(ta.tour, len(local))
		ta.tour = tour
		for i, lv := range local {
			tour[i] = members[lv]
		}
	}
	if opt.Refine {
		tour = opt.refine(sp, tour)
	}
	if tour[0] != depot {
		panic(fmt.Sprintf("rooted: tour lost its depot %d", depot))
	}
	return append([]int(nil), tour[1:]...)
}

// Validate checks that sol covers exactly the requested sensors, that
// each tour is rooted at a distinct requested depot, that every stop is
// a point of sp, that no sensor is visited twice across tours, and that
// recorded costs match sp.
func (s Solution) Validate(sp metric.Space, depots, sensors []int) error {
	if len(s.Tours) != len(depots) {
		return fmt.Errorf("rooted: %d tours for %d depots", len(s.Tours), len(depots))
	}
	wantDepot := make(map[int]bool, len(depots))
	for _, d := range depots {
		wantDepot[d] = true
	}
	visited := make(map[int]bool)
	for _, t := range s.Tours {
		if !wantDepot[t.Depot] {
			return unrequestedDepotErr(t.Depot)
		}
		delete(wantDepot, t.Depot)
		for _, v := range t.Stops {
			if v < 0 || v >= sp.Len() {
				return stopRangeErr(t.Depot, v, sp.Len())
			}
			if visited[v] {
				return revisitErr(v)
			}
			visited[v] = true
		}
		if got, want := t.Cost, tsp.Cost(sp, t.Vertices()); abs(got-want) > 1e-6*(1+want) {
			return costErr(t.Depot, got, want)
		}
	}
	if len(wantDepot) != 0 {
		return fmt.Errorf("rooted: %d depots have no tour", len(wantDepot))
	}
	for _, v := range sensors {
		if !visited[v] {
			return uncoveredErr(v)
		}
	}
	if len(visited) != len(sensors) {
		return fmt.Errorf("rooted: tours visit %d sensors, want %d", len(visited), len(sensors))
	}
	return nil
}

// Cold constructors for Validate's errors, kept out of its loops.

func stopRangeErr(depot, stop, n int) error {
	return fmt.Errorf("rooted: tour at depot %d has stop %d out of range [0,%d)", depot, stop, n)
}

func unrequestedDepotErr(d int) error {
	return fmt.Errorf("rooted: tour rooted at %d which is not a requested depot", d)
}

func revisitErr(v int) error { return fmt.Errorf("rooted: sensor %d visited by two tours", v) }

func costErr(depot int, got, want float64) error {
	return fmt.Errorf("rooted: tour at depot %d records cost %g, recomputed %g", depot, got, want)
}

func uncoveredErr(v int) error { return fmt.Errorf("rooted: sensor %d not covered by any tour", v) }

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

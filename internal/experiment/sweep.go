package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Sweep is one experiment: a sequence of x-axis values, each evaluated on
// Topologies independent random networks by every algorithm in
// Algorithms. Cells are distributed over a worker pool; determinism comes
// from per-cell label-derived seeds, not from execution order.
type Sweep struct {
	// Name identifies the sweep (e.g. "fig1a").
	Name string
	// XLabel names the swept parameter for output.
	XLabel string
	// Xs are the swept values.
	Xs []float64
	// Algorithms lists the RunOne algorithm labels to compare.
	Algorithms []string
	// Topologies is the number of random networks per point (the paper
	// uses 100).
	Topologies int
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Seed is the master seed.
	Seed uint64
	// Make builds the cell parameters for (x, topology); the sweep
	// fills in the cell seed afterwards.
	Make func(x float64, topo int) Params
	// Progress, if non-nil, is called after each completed cell with
	// (done, total). Calls may come from multiple goroutines.
	Progress func(done, total int)
}

// Cell identifies one (x, topology) simulation instance.
type Cell struct {
	XIndex   int
	Topology int
}

// CellError is the error a failed sweep returns: it identifies the
// first failing cell so harness output can point at the exact
// (x, topology, algorithm) to re-run. Later cells are drained, not run,
// so the sweep still terminates promptly and Progress reaches total.
type CellError struct {
	Sweep    string
	X        float64
	Topology int
	// Algo is the algorithm that failed, or "" when cell preparation
	// (topology generation) failed before any algorithm ran.
	Algo string
	Err  error
}

// Label renders the failing cell's coordinates, e.g.
// "fig5 x=300 topo=7 algo=Greedy".
func (e *CellError) Label() string {
	l := fmt.Sprintf("%s x=%v topo=%d", e.Sweep, e.X, e.Topology)
	if e.Algo != "" {
		l += " algo=" + e.Algo
	}
	return l
}

func (e *CellError) Error() string { return fmt.Sprintf("experiment: %s: %v", e.Label(), e.Err) }

func (e *CellError) Unwrap() error { return e.Err }

// Point is the aggregated result at one x value.
type Point struct {
	X float64
	// Costs[algo] is the per-topology service-cost sample.
	Costs map[string][]float64
	// Summary[algo] aggregates Costs[algo].
	Summary map[string]stats.Summary
	// Deaths[algo] is the total sensor deaths across topologies
	// (expected 0 for all implemented policies).
	Deaths map[string]int
	// Dispatches[algo] is the mean number of non-empty rounds.
	Dispatches map[string]float64
	// Replans is the mean number of re-plans (MinTotalDistance-var).
	Replans map[string]float64
	// Millis is the mean wall-clock milliseconds per cell
	// (non-deterministic; for the scalability study). PlanMillis and
	// RefineMillis break it into phases: planning (tour construction
	// and re-planning), the local-search share of planning, and — by
	// subtraction from Millis — simulation.
	Millis       map[string]float64
	PlanMillis   map[string]float64
	RefineMillis map[string]float64
	// LowerBound is the mean certified lower bound on OPT (PlanFixed).
	LowerBound float64
}

// Series is a completed sweep.
type Series struct {
	Name       string
	XLabel     string
	Algorithms []string
	Points     []Point
}

// Run executes the sweep.
func (s Sweep) Run() (Series, error) {
	if len(s.Xs) == 0 || s.Topologies <= 0 || len(s.Algorithms) == 0 {
		return Series{}, fmt.Errorf("experiment: sweep %q needs xs, topologies and algorithms", s.Name)
	}
	if s.Make == nil {
		return Series{}, fmt.Errorf("experiment: sweep %q has no Make", s.Name)
	}
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	type cellOut struct {
		out map[string]Outcome
	}
	results := make([][]cellOut, len(s.Xs))
	for i := range results {
		results[i] = make([]cellOut, s.Topologies)
	}

	cells := make(chan Cell)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	var done int64
	total := len(s.Xs) * s.Topologies
	master := rng.New(s.Seed)

	runCell := func(c Cell, ws *Scratch) {
		x := s.Xs[c.XIndex]
		p := s.Make(x, c.Topology)
		p.Seed = master.Split(hashName(s.Name), math.Float64bits(x), uint64(c.Topology)).Seed()
		// Prepare the cell once: topology, dense distance matrix,
		// candidate lists and (variable regime) the slotted model are
		// shared by every algorithm of the cell.
		pr, err := PrepareInto(p, ws)
		if err != nil {
			firstErr.CompareAndSwap(nil, &CellError{Sweep: s.Name, X: x, Topology: c.Topology, Err: err})
			return
		}
		outs := make(map[string]Outcome, len(s.Algorithms))
		for _, algo := range s.Algorithms {
			o, err := pr.Run(algo, p)
			if err != nil {
				firstErr.CompareAndSwap(nil, &CellError{Sweep: s.Name, X: x, Topology: c.Topology, Algo: algo, Err: err})
				return
			}
			outs[algo] = o
		}
		results[c.XIndex][c.Topology] = cellOut{out: outs}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arena: the dense matrix, candidate lists and
			// local-search buffers are rebuilt in place cell after cell.
			// Workers never share cells, so the reuse is goroutine-local.
			var ws Scratch
			for c := range cells {
				// After the first error, remaining cells are drained
				// without building them (s.Make and Prepare are skipped),
				// but still counted, so Progress reaches total.
				if firstErr.Load() == nil {
					runCell(c, &ws)
				}
				if s.Progress != nil {
					s.Progress(int(atomic.AddInt64(&done, 1)), total)
				}
			}
		}()
	}
	for xi := range s.Xs {
		for topo := 0; topo < s.Topologies; topo++ {
			cells <- Cell{XIndex: xi, Topology: topo}
		}
	}
	close(cells)
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return Series{}, e.(*CellError)
	}

	series := Series{Name: s.Name, XLabel: s.XLabel, Algorithms: s.Algorithms}
	for xi, x := range s.Xs {
		pt := Point{
			X:            x,
			Costs:        map[string][]float64{},
			Summary:      map[string]stats.Summary{},
			Deaths:       map[string]int{},
			Dispatches:   map[string]float64{},
			Replans:      map[string]float64{},
			Millis:       map[string]float64{},
			PlanMillis:   map[string]float64{},
			RefineMillis: map[string]float64{},
		}
		var lbSum float64
		for _, algo := range s.Algorithms {
			costs := make([]float64, 0, s.Topologies)
			var deaths int
			var disp, replans, millis, planMs, refineMs float64
			for topo := 0; topo < s.Topologies; topo++ {
				o := results[xi][topo].out[algo]
				costs = append(costs, o.Cost)
				deaths += o.Deaths
				disp += float64(o.Dispatches)
				replans += float64(o.Replans)
				millis += o.Millis
				planMs += o.PlanMillis
				refineMs += o.RefineMillis
				if algo == AlgoMTD {
					lbSum += o.LowerBound
				}
			}
			pt.Costs[algo] = costs
			pt.Summary[algo] = stats.Summarize(costs)
			pt.Deaths[algo] = deaths
			pt.Dispatches[algo] = disp / float64(s.Topologies)
			pt.Replans[algo] = replans / float64(s.Topologies)
			pt.Millis[algo] = millis / float64(s.Topologies)
			pt.PlanMillis[algo] = planMs / float64(s.Topologies)
			pt.RefineMillis[algo] = refineMs / float64(s.Topologies)
		}
		pt.LowerBound = lbSum / float64(s.Topologies)
		series.Points = append(series.Points, pt)
	}
	return series, nil
}

// hashName folds a sweep name into a seed label.
func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a 64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

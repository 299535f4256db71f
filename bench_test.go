// Benchmarks regenerating every figure of the paper's evaluation, plus
// micro-benchmarks of the core algorithms and the ablation studies
// DESIGN.md calls out.
//
// Each BenchmarkFigNx measures one representative *cell* of that figure
// — a single random topology at a representative sweep point, run by
// every algorithm the figure compares — so `go test -bench=.` finishes
// in minutes. The full paper-scale sweeps (100 topologies per point,
// T=1000) are produced by `go run ./cmd/figures -all`; EXPERIMENTS.md
// records those results against the paper's.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metric"
	"repro/internal/rooted"
	"repro/internal/tsp"
)

// benchCell runs one cell of a figure at bench scale (T scaled down so a
// cell is milliseconds, the algorithm mix identical to the figure).
func benchCell(b *testing.B, id string, x float64) {
	b.Helper()
	cfg := experiment.Config{Topologies: 1, T: 200, Seed: 1}
	series, err := experiment.Figure(id, cfg) // resolves algorithms & params
	if err != nil {
		b.Fatal(err)
	}
	_ = series
	// Re-run just the chosen x cell inside the timing loop.
	sw := experiment.Sweep{
		Name: "bench-" + id, XLabel: "x", Xs: []float64{x},
		Algorithms: series.Algorithms,
		Topologies: 1, Workers: 1, Seed: 1,
		Make: figureMake(b, id, cfg),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// figureMake extracts the parameter builder of a figure at bench scale.
func figureMake(b *testing.B, id string, cfg experiment.Config) func(float64, int) experiment.Params {
	b.Helper()
	return func(x float64, topo int) experiment.Params {
		p, err := experiment.FigureParams(id, cfg, x, topo)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
}

// --- One benchmark per figure panel of the paper -----------------------

func BenchmarkFig1aLinearN(b *testing.B)      { benchCell(b, "1a", 200) }
func BenchmarkFig1bRandomN(b *testing.B)      { benchCell(b, "1b", 200) }
func BenchmarkFig2aLinearTauMax(b *testing.B) { benchCell(b, "2a", 30) }
func BenchmarkFig2bRandomTauMax(b *testing.B) { benchCell(b, "2b", 30) }
func BenchmarkFig3VarN(b *testing.B)          { benchCell(b, "3", 200) }
func BenchmarkFig4VarTauMax(b *testing.B)     { benchCell(b, "4", 30) }
func BenchmarkFig5VarDT(b *testing.B)         { benchCell(b, "5", 10) }
func BenchmarkFig6VarSigma(b *testing.B)      { benchCell(b, "6", 20) }

// --- Ablation benches ---------------------------------------------------

func BenchmarkAblationTourConstruction(b *testing.B) { benchCell(b, "ablation-tours", 200) }
func BenchmarkAblationRoundingBase(b *testing.B)     { benchCell(b, "ablation-base", 3) }
func BenchmarkAblationChargerCount(b *testing.B)     { benchCell(b, "ablation-q", 5) }
func BenchmarkAblationDepotPlacement(b *testing.B)   { benchCell(b, "ablation-depots", 1) }

// --- Micro-benchmarks of the algorithmic core ---------------------------

func benchNetwork(b *testing.B, n int) (*Network, metric.Space) {
	b.Helper()
	net, err := Generate(NewRand(17), GenConfig{
		N: n, Q: 5, Dist: LinearDist{TauMin: 1, TauMax: 50, Sigma: 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	return net, metric.Materialize(net.Space())
}

func BenchmarkQRootedMSF(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, sp := benchNetwork(b, n)
			depots, sensors := net.DepotIndices(), net.SensorIndices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rooted.MSF(sp, depots, sensors)
			}
		})
	}
}

func BenchmarkQRootedTSP(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, sp := benchNetwork(b, n)
			depots, sensors := net.DepotIndices(), net.SensorIndices()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rooted.Tours(sp, depots, sensors, rooted.Options{})
			}
		})
	}
}

func BenchmarkQRootedTSPRefined(b *testing.B) {
	net, sp := benchNetwork(b, 200)
	depots, sensors := net.DepotIndices(), net.SensorIndices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rooted.Tours(sp, depots, sensors, rooted.Options{Refine: true})
	}
}

func BenchmarkPlanFixed(b *testing.B) {
	for _, n := range []int{100, 200, 500} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			net, _ := benchNetwork(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PlanFixed(net, 1000, FixedOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGreedyFixedSim(b *testing.B) {
	net, _ := benchNetwork(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunGreedyFixed(net, 200, 1, TourOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVarSim(b *testing.B) {
	net, _ := benchNetwork(b, 200)
	dist := LinearDist{TauMin: 1, TauMax: 50, Sigma: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model, err := NewSlottedModel(net, dist, 10, NewRand(5))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := RunVar(net, model, 200, 1, 0, TourOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTwoOpt(b *testing.B) {
	_, sp := benchNetwork(b, 300)
	base := tsp.NearestNeighbor(sp, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tour := append([]int(nil), base...)
		tsp.TwoOpt(sp, tour, -1)
	}
}

func BenchmarkScheduleVerify(b *testing.B) {
	net, _ := benchNetwork(b, 200)
	plan, err := PlanFixed(net, 1000, FixedOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cycles := net.Cycles()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Schedule.Verify(cycles, 1e-6); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterFirstTours(b *testing.B) {
	net, sp := benchNetwork(b, 200)
	depots, sensors := net.DepotIndices(), net.SensorIndices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rooted.Tours(sp, depots, sensors, rooted.Options{Method: rooted.MethodClusterFirst})
	}
}

func BenchmarkBalanceTours(b *testing.B) {
	net, sp := benchNetwork(b, 150)
	sol := rooted.Tours(sp, net.DepotIndices(), net.SensorIndices(), rooted.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rooted.BalanceTours(sp, sol, 50)
	}
}

// --- Large-n planning benches (grid vs dense) ---------------------------

// benchLargeNet generates one large random-cycle topology at the scale
// the sub-quadratic path targets — the same parameters cmd/bench -large
// uses, so in-test and end-to-end captures measure identical cells.
// Generation runs outside the timer.
func benchLargeNet(b *testing.B, n, q int) *Network {
	b.Helper()
	p := experiment.Params{
		N: n, Q: q, TauMin: 1, TauMax: 20,
		DistName: "random", T: 40, Seed: 1,
	}
	net, err := p.Network()
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// benchLargePlan times full PlanFixed calls on one large topology with
// the requested metric backend, then reports the post-plan heap
// footprint (MemStats.HeapSys) under the same "heap-bytes" unit
// cmd/bench -large emits, so benchfmt aggregates both capture styles.
func benchLargePlan(b *testing.B, n, q int, dense bool) {
	b.Helper()
	net := benchLargeNet(b, n, q)
	opt := FixedOptions{Rooted: rooted.Options{Workers: runtime.GOMAXPROCS(0)}}
	if dense {
		opt.Space = metric.Materialize(net.Space())
	} else {
		opt.Space = metric.NewGrid(net.Points())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanFixed(net, 40, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys), "heap-bytes")
}

// BenchmarkLargePlanGrid plans large topologies on the sub-quadratic
// path: grid k-NN lists, Borůvka MSF, and parallel tour refinement.
// The grid is forced even at n=2000 (below metric.DenseLimit) so the
// paired dense benchmark exposes the crossover, not just the asymptote.
// Run with -benchtime 1x; one plan is the unit of interest.
func BenchmarkLargePlanGrid(b *testing.B) {
	for _, n := range []int{2000, 10000, 50000} {
		for _, q := range []int{5, 20} {
			b.Run(fmt.Sprintf("n=%d/q=%d", n, q), func(b *testing.B) {
				benchLargePlan(b, n, q, false)
			})
		}
	}
	// The headline cell: one million sensors through the compact grid
	// index, sharded Borůvka, and pooled arenas. q=20 only — one plan
	// takes minutes, and the q sweep adds nothing at this scale.
	b.Run("n=1000000/q=20", func(b *testing.B) {
		benchLargePlan(b, 1000000, 20, false)
	})
}

// BenchmarkLargePlanDense forces the O(n²) dense path on the same
// topologies for paired speedup measurements. Capped at n=10000 — the
// 50k matrix alone would be 20 GB.
func BenchmarkLargePlanDense(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		for _, q := range []int{5, 20} {
			b.Run(fmt.Sprintf("n=%d/q=%d", n, q), func(b *testing.B) {
				benchLargePlan(b, n, q, true)
			})
		}
	}
}

func BenchmarkVarSimWithOutages(b *testing.B) {
	net, _ := benchNetwork(b, 100)
	dist := LinearDist{TauMin: 1, TauMax: 50, Sigma: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model, err := NewSlottedModel(net, dist, 10, NewRand(5))
		if err != nil {
			b.Fatal(err)
		}
		pol := &VarPolicy{}
		b.StartTimer()
		if _, err := Simulate(net, model, pol, SimConfig{
			T: 150, Dt: 1,
			Outages: []ChargerOutage{{Depot: 0, From: 40, To: 80}},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

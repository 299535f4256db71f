package experiment

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/wsn"
)

// PrepareNet wraps an already-built network — one that did not come from
// Params.Network, e.g. a topology decoded from a serving request — in a
// Prepared, materializing its dense distance matrix.
func PrepareNet(net *wsn.Network) *Prepared { return PrepareNetInto(net, nil) }

// preparedForced returns the cell's Prepared twice: once on the dense
// path and once with the space swapped for a grid over the same points,
// so the two planning paths can be compared below the threshold.
func preparedForced(t *testing.T, p Params) (dense, grid *Prepared) {
	t.Helper()
	net, err := p.Network()
	if err != nil {
		t.Fatal(err)
	}
	dense = PrepareNet(net)
	if _, ok := metric.AsDense(dense.Space); !ok {
		t.Fatalf("PrepareNet picked %T below the threshold, want Dense", dense.Space)
	}
	grid = &Prepared{Net: net, Space: metric.NewGrid(net.Points())}
	return dense, grid
}

// TestPrepareNetThreshold pins the space-selection policy: Dense up to
// metric.DenseLimit points, Grid above it.
func TestPrepareNetThreshold(t *testing.T) {
	small := Params{N: 30, Q: 3, TauMin: 1, TauMax: 20, DistName: "random", Seed: 9}
	net, err := small.Network()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := metric.AsDense(PrepareNet(net).Space); !ok {
		t.Fatal("small topology not prepared as Dense")
	}

	big := Params{N: metric.DenseLimit + 10, Q: 5, TauMin: 1, TauMax: 20, DistName: "random", Seed: 9}
	bnet, err := big.Network()
	if err != nil {
		t.Fatal(err)
	}
	pr := PrepareNet(bnet)
	g, ok := metric.AsGrid(pr.Space)
	if !ok {
		t.Fatalf("large topology prepared as %T, want *metric.Grid", pr.Space)
	}
	if g.Len() != bnet.N()+bnet.Q() {
		t.Fatalf("grid covers %d points, network has %d", g.Len(), bnet.N()+bnet.Q())
	}
	// The arena path must make the same choice.
	var ws Scratch
	if _, ok := metric.AsGrid(PrepareNetInto(bnet, &ws).Space); !ok {
		t.Fatal("arena-prepared large topology is not grid-backed")
	}
	// Grid cells refine through per-tour lists, so TourOptions must not
	// attach whole-space candidate lists.
	var opt = pr
	ropt := tinyParams().Rooted
	ropt.Refine = true
	opt.TourOptions(&ropt, nil)
	if ropt.Neighbors != nil {
		t.Fatal("TourOptions attached whole-space lists on the grid path")
	}
}

// TestGridDensePlanEquivalence runs the full MinTotalDistance planner on
// a below-threshold topology through both space backends and requires
// the same plans: identical schedules stop-for-stop and costs equal to
// float tolerance. Together with the threshold test this shows the
// large-n path computes the same plans the paper-scale path does, just
// without the matrix.
func TestGridDensePlanEquivalence(t *testing.T) {
	for _, algo := range []string{AlgoMTD, AlgoMTDRefined} {
		p := Params{
			N: 250, Q: 6, TauMin: 1, TauMax: 30, Sigma: 2,
			DistName: "linear", T: 120, Seed: 77,
		}
		dense, grid := preparedForced(t, p)
		od, err := dense.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		og, err := grid.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(od.Cost-og.Cost) > 1e-9*(1+od.Cost) {
			t.Fatalf("%s: dense cost %.12g != grid cost %.12g", algo, od.Cost, og.Cost)
		}
		if od.Dispatches != og.Dispatches || math.Abs(od.LowerBound-og.LowerBound) > 1e-9*(1+od.LowerBound) {
			t.Fatalf("%s: dispatches/bound diverge: %+v vs %+v", algo, od, og)
		}
	}
}

// TestGridQRootedEquivalence compares the single-round q-rooted TSP
// ablation across backends, with and without refinement.
func TestGridQRootedEquivalence(t *testing.T) {
	for _, algo := range []string{AlgoQRootedApprox, AlgoQRootedRefined} {
		p := Params{
			N: 200, Q: 5, TauMin: 1, TauMax: 20,
			DistName: "random", T: 60, Seed: 31,
		}
		dense, grid := preparedForced(t, p)
		od, err := dense.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		og, err := grid.Run(algo, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(od.Cost-og.Cost) > 1e-9*(1+od.Cost) {
			t.Fatalf("%s: dense cost %.12g != grid cost %.12g", algo, od.Cost, og.Cost)
		}
	}
}

// TestLargePlanSmoke plans one above-threshold topology end to end on
// the auto-selected grid path and sanity-checks the result. It is the
// in-tree miniature of the CI large-n smoke job (cmd/bench -large).
func TestLargePlanSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("above-threshold topology generation in -short mode")
	}
	p := Params{
		N: metric.DenseLimit + 200, Q: 5, TauMin: 1, TauMax: 20,
		DistName: "random", T: 40, Seed: 13,
	}
	net, err := p.Network()
	if err != nil {
		t.Fatal(err)
	}
	pr := PrepareNet(net)
	if _, ok := metric.AsGrid(pr.Space); !ok {
		t.Fatalf("large cell prepared as %T", pr.Space)
	}
	out, err := pr.Run(AlgoMTD, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost <= 0 || out.Dispatches <= 0 || out.LowerBound <= 0 {
		t.Fatalf("degenerate large-plan outcome: %+v", out)
	}
}

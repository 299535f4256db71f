package experiment

//lint:file-allow floateq cross-run determinism and config passthrough must be exact: equal seeds give bit-identical outcomes
import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/wsn"
)

func tinyConfig() Config {
	return Config{Topologies: 3, T: 60, Workers: 4, Seed: 5}
}

func tinyParams() Params {
	return Params{
		N: 25, Q: 3, TauMin: 1, TauMax: 20, Sigma: 2,
		DistName: "linear", T: 60, Dt: 1, Seed: 42,
	}
}

func TestRunOneFixedAlgorithms(t *testing.T) {
	for _, algo := range []string{AlgoMTD, AlgoMTDRefined, AlgoGreedy, AlgoChargeAll} {
		t.Run(algo, func(t *testing.T) {
			out, err := RunOne(algo, tinyParams())
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost <= 0 {
				t.Errorf("cost = %g", out.Cost)
			}
			if out.Deaths != 0 {
				t.Errorf("deaths = %d", out.Deaths)
			}
		})
	}
}

func TestRunOneVariableAlgorithms(t *testing.T) {
	p := tinyParams()
	p.Variable = true
	p.SlotDT = 10
	for _, algo := range []string{AlgoMTDVar, AlgoGreedy} {
		t.Run(algo, func(t *testing.T) {
			out, err := RunOne(algo, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost <= 0 {
				t.Errorf("cost = %g", out.Cost)
			}
			if out.Deaths != 0 {
				t.Errorf("deaths = %d", out.Deaths)
			}
		})
	}
	if _, err := RunOne(AlgoMTDVar, tinyParams()); err == nil {
		t.Error("variable algorithm accepted fixed params (SlotDT unset)")
	}
}

func TestRunOneRejectsUnknown(t *testing.T) {
	if _, err := RunOne("nope", tinyParams()); err == nil {
		t.Error("unknown algorithm accepted")
	}
	p := tinyParams()
	p.DistName = "weird"
	if _, err := RunOne(AlgoMTD, p); err == nil {
		t.Error("unknown distribution accepted")
	}
	p = tinyParams()
	p.Variable = true
	p.SlotDT = 10
	if _, err := RunOne(AlgoMTD, p); err == nil {
		t.Error("fixed-only algorithm accepted for variable regime")
	}
}

func TestRunOneDeterministicAndPaired(t *testing.T) {
	p := tinyParams()
	a, err := RunOne(AlgoMTD, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOne(AlgoMTD, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost {
		t.Errorf("same params, different cost: %g vs %g", a.Cost, b.Cost)
	}
	// Pairing: the greedy run on the same params sees the same network
	// (deaths=0 is a weak check; cost determinism is the real one).
	g1, _ := RunOne(AlgoGreedy, p)
	g2, _ := RunOne(AlgoGreedy, p)
	if g1.Cost != g2.Cost {
		t.Errorf("greedy nondeterministic: %g vs %g", g1.Cost, g2.Cost)
	}
}

func TestSweepRunAggregates(t *testing.T) {
	sw := Sweep{
		Name: "test", XLabel: "n", Xs: []float64{10, 20},
		Algorithms: []string{AlgoMTD, AlgoGreedy},
		Topologies: 3, Workers: 3, Seed: 7,
		Make: func(x float64, topo int) Params {
			p := tinyParams()
			p.N = int(x)
			p.T = 40
			return p
		},
	}
	s, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points = %d", len(s.Points))
	}
	for _, pt := range s.Points {
		for _, algo := range s.Algorithms {
			if len(pt.Costs[algo]) != 3 {
				t.Fatalf("x=%g %s: %d samples", pt.X, algo, len(pt.Costs[algo]))
			}
			if pt.Summary[algo].Mean <= 0 {
				t.Errorf("x=%g %s: mean %g", pt.X, algo, pt.Summary[algo].Mean)
			}
			if pt.Deaths[algo] != 0 {
				t.Errorf("x=%g %s: deaths %d", pt.X, algo, pt.Deaths[algo])
			}
		}
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) Series {
		sw := Sweep{
			Name: "det", XLabel: "n", Xs: []float64{12, 18},
			Algorithms: []string{AlgoMTD},
			Topologies: 4, Workers: workers, Seed: 11,
			Make: func(x float64, topo int) Params {
				p := tinyParams()
				p.N = int(x)
				p.T = 30
				return p
			},
		}
		s, err := sw.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(1), mk(8)
	for i := range a.Points {
		for j := range a.Points[i].Costs[AlgoMTD] {
			if a.Points[i].Costs[AlgoMTD][j] != b.Points[i].Costs[AlgoMTD][j] {
				t.Fatalf("point %d topo %d differs across worker counts", i, j)
			}
		}
	}
}

func TestSweepProgressCallback(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	sw := Sweep{
		Name: "prog", XLabel: "n", Xs: []float64{10},
		Algorithms: []string{AlgoMTD},
		Topologies: 5, Workers: 2, Seed: 3,
		Make: func(x float64, topo int) Params {
			p := tinyParams()
			p.N = int(x)
			p.T = 20
			return p
		},
		Progress: func(done, total int) {
			mu.Lock()
			calls++
			if total != 5 {
				t.Errorf("total = %d", total)
			}
			mu.Unlock()
		},
	}
	if _, err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("progress calls = %d, want 5", calls)
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []Sweep{
		{Name: "a", Xs: nil, Algorithms: []string{AlgoMTD}, Topologies: 1, Make: func(float64, int) Params { return tinyParams() }},
		{Name: "b", Xs: []float64{1}, Algorithms: nil, Topologies: 1, Make: func(float64, int) Params { return tinyParams() }},
		{Name: "c", Xs: []float64{1}, Algorithms: []string{AlgoMTD}, Topologies: 0, Make: func(float64, int) Params { return tinyParams() }},
		{Name: "d", Xs: []float64{1}, Algorithms: []string{AlgoMTD}, Topologies: 1},
	}
	for _, sw := range bad {
		if _, err := sw.Run(); err == nil {
			t.Errorf("sweep %q accepted", sw.Name)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	var mu sync.Mutex
	lastDone := 0
	sw := Sweep{
		Name: "err", XLabel: "n", Xs: []float64{10},
		Algorithms: []string{"bogus"},
		Topologies: 6, Workers: 2, Seed: 1,
		Make: func(x float64, topo int) Params {
			return tinyParams()
		},
		Progress: func(done, total int) {
			mu.Lock()
			if done > lastDone {
				lastDone = done
			}
			mu.Unlock()
		},
	}
	_, err := sw.Run()
	if err == nil {
		t.Fatal("bogus algorithm error swallowed")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a *CellError: %v", err, err)
	}
	if ce.Sweep != "err" || ce.Algo != "bogus" || ce.X != 10 {
		t.Errorf("CellError identifies %q, want sweep err / algo bogus / x 10", ce.Label())
	}
	if !strings.Contains(err.Error(), ce.Label()) {
		t.Errorf("error text %q does not carry the cell label %q", err, ce.Label())
	}
	// Drained cells still count toward progress, so a consumer's bar
	// completes even when the sweep fails.
	if lastDone != 6 {
		t.Errorf("progress reached %d of 6 cells on the error path", lastDone)
	}
}

func TestPrepareIntoReusesScratch(t *testing.T) {
	var ws Scratch
	p := tinyParams()
	want, err := RunOne(AlgoMTDRefined, p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		pr, err := PrepareInto(p, &ws)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pr.Run(AlgoMTDRefined, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != want.Cost || got.Dispatches != want.Dispatches {
			t.Fatalf("trial %d: scratch-prepared run diverged: cost %g want %g",
				trial, got.Cost, want.Cost)
		}
	}
	// Interleave a different cell size to exercise arena regrowth.
	big := p
	big.N = 80
	if _, err := PrepareInto(big, &ws); err != nil {
		t.Fatal(err)
	}
	pr, err := PrepareInto(p, &ws)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pr.Run(AlgoMTDRefined, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost {
		t.Fatalf("after regrowth: cost %g, want %g", got.Cost, want.Cost)
	}
}

func TestFigureIDsAllRun(t *testing.T) {
	// Every declared figure must be runnable end-to-end (tiny size).
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range FigureIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig()
			cfg.Topologies = 2
			cfg.T = 40
			s, err := Figure(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Points) == 0 {
				t.Fatal("no points")
			}
			if FigureDescription(id) == "" {
				t.Error("missing description")
			}
			for _, pt := range s.Points {
				for _, algo := range s.Algorithms {
					if pt.Summary[algo].Mean <= 0 {
						t.Errorf("x=%g %s: mean %g", pt.X, algo, pt.Summary[algo].Mean)
					}
				}
			}
		})
	}
}

func TestFigureUnknown(t *testing.T) {
	if _, err := Figure("99z", tinyConfig()); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestFigureSweepShapes(t *testing.T) {
	cfg := Config{}.defaults()
	cases := map[string]struct {
		xLabel string
		points int
		algos  []string
	}{
		"1a":                 {"n", 5, []string{AlgoMTD, AlgoGreedy}},
		"1b":                 {"n", 5, []string{AlgoMTD, AlgoGreedy}},
		"2a":                 {"tau_max", 7, []string{AlgoMTD, AlgoGreedy}},
		"3":                  {"n", 5, []string{AlgoMTDVar, AlgoGreedy}},
		"5":                  {"dT", 9, []string{AlgoMTDVar, AlgoGreedy}},
		"6":                  {"sigma", 7, []string{AlgoMTDVar, AlgoGreedy}},
		"ablation-guard":     {"sigma", 4, []string{AlgoMTDVar, AlgoMTDVarNoGuard}},
		"ablation-scale":     {"n", 5, []string{AlgoMTD}},
		"ablation-clustered": {"clusters", 5, []string{AlgoMTD, AlgoGreedy}},
	}
	for id, want := range cases {
		sw, err := figureSweep(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sw.XLabel != want.xLabel || len(sw.Xs) != want.points {
			t.Errorf("%s: xlabel=%s points=%d", id, sw.XLabel, len(sw.Xs))
		}
		for i, a := range want.algos {
			if sw.Algorithms[i] != a {
				t.Errorf("%s: algorithms = %v", id, sw.Algorithms)
			}
		}
	}
}

func TestFigureDefaultsMatchPaper(t *testing.T) {
	cfg := Config{}.defaults()
	if cfg.Topologies != 100 || cfg.T != 1000 || cfg.Q != 5 || cfg.TauMin != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
	sw, err := figureSweep("1a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := sw.Make(100, 0)
	if p.TauMax != 50 || p.Sigma != 2 || p.DistName != "linear" || p.Variable {
		t.Errorf("fig1a params = %+v", p)
	}
	sw, err = figureSweep("3", cfg)
	if err != nil {
		t.Fatal(err)
	}
	p = sw.Make(100, 0)
	if !p.Variable || p.SlotDT != 10 {
		t.Errorf("fig3 params = %+v", p)
	}
	if p.DepotPlacement != wsn.DepotBaseFirst {
		t.Errorf("placement = %v", p.DepotPlacement)
	}
}

func TestFigureDescriptionsCoverIDs(t *testing.T) {
	for _, id := range FigureIDs() {
		if d := FigureDescription(id); d == "" || !strings.Contains(strings.ToLower(d), "") {
			t.Errorf("figure %s has no description", id)
		}
	}
}

func TestQRootedRatioAlgorithms(t *testing.T) {
	p := tinyParams()
	p.N = 6
	p.Q = 2
	approx, err := RunOne(AlgoQRootedApprox, p)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := RunOne(AlgoQRootedRefined, p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := RunOne(AlgoQRootedExact, p)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Cost > approx.Cost+1e-9 || exact.Cost > refined.Cost+1e-9 {
		t.Errorf("exact %g beaten by approx %g / refined %g", exact.Cost, approx.Cost, refined.Cost)
	}
	if approx.Cost > 2*exact.Cost+1e-9 {
		t.Errorf("ratio %g exceeds 2", approx.Cost/exact.Cost)
	}
	if refined.Cost > approx.Cost+1e-9 {
		t.Errorf("refined %g worse than plain %g", refined.Cost, approx.Cost)
	}
}

func TestOutcomeMillisRecorded(t *testing.T) {
	out, err := RunOne(AlgoMTD, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if out.Millis < 0 {
		t.Errorf("negative runtime %g", out.Millis)
	}
	sw := Sweep{
		Name: "millis", XLabel: "n", Xs: []float64{10},
		Algorithms: []string{AlgoMTD}, Topologies: 2, Workers: 1, Seed: 1,
		Make: func(x float64, topo int) Params {
			p := tinyParams()
			p.N = int(x)
			p.T = 20
			return p
		},
	}
	s, err := sw.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Points[0].Millis[AlgoMTD] < 0 {
		t.Errorf("millis aggregation wrong: %g", s.Points[0].Millis[AlgoMTD])
	}
}

func TestClusteredParamsGenerate(t *testing.T) {
	p := tinyParams()
	p.Clusters = 3
	p.Spread = 50
	nw, err := p.Network()
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != p.N {
		t.Fatalf("N = %d", nw.N())
	}
	out, err := RunOne(AlgoMTD, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cost <= 0 || out.Deaths != 0 {
		t.Errorf("clustered cell: cost=%g deaths=%d", out.Cost, out.Deaths)
	}
}

func TestGuardAblationAlgorithms(t *testing.T) {
	p := tinyParams()
	p.Variable = true
	p.SlotDT = 5
	guarded, err := RunOne(AlgoMTDVar, p)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := RunOne(AlgoMTDVarNoGuard, p)
	if err != nil {
		t.Fatal(err)
	}
	if guarded.Deaths != 0 {
		t.Errorf("guarded deaths = %d", guarded.Deaths)
	}
	// The unguarded variant may or may not lose sensors on this tiny
	// instance; it must at least run and report a positive cost.
	if bare.Cost <= 0 {
		t.Errorf("unguarded cost = %g", bare.Cost)
	}
}

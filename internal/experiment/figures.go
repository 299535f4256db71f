package experiment

import (
	"fmt"
	"sort"

	"repro/internal/wsn"
)

// Config carries the experiment-wide defaults of Section VII-A; zero
// values select the paper's settings.
type Config struct {
	Topologies int     // networks per point; 0 = 100
	Workers    int     // 0 = GOMAXPROCS
	Seed       uint64  // 0 = 1
	T          float64 // monitoring period; 0 = 1000
	Q          int     // chargers; 0 = 5
	TauMin     float64 // 0 = 1
	Progress   func(done, total int)
}

func (c Config) defaults() Config {
	if c.Topologies == 0 {
		c.Topologies = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.T == 0 {
		c.T = 1000
	}
	if c.Q == 0 {
		c.Q = 5
	}
	if c.TauMin == 0 {
		c.TauMin = 1
	}
	return c
}

// base assembles the default cell parameters shared by all figures.
func (c Config) base() Params {
	return Params{
		Q:      c.Q,
		TauMin: c.TauMin,
		T:      c.T,
		Dt:     c.TauMin,
	}
}

// FigureIDs lists the paper figures (and the extra ablations) in
// presentation order.
func FigureIDs() []string {
	return []string{"1a", "1b", "2a", "2b", "3", "4", "5", "6",
		"ablation-tours", "ablation-base", "ablation-q", "ablation-depots",
		"ablation-ratio", "ablation-gamma", "ablation-guard", "ablation-clustered",
		"ablation-scale", "ablation-updates"}
}

// FigureDescription returns a one-line description of a figure ID.
func FigureDescription(id string) string {
	d := map[string]string{
		"1a":                 "Fig 1(a): service cost vs network size n, linear distribution, fixed cycles",
		"1b":                 "Fig 1(b): service cost vs network size n, random distribution, fixed cycles",
		"2a":                 "Fig 2(a): service cost vs tau_max, linear distribution, fixed cycles (n=200)",
		"2b":                 "Fig 2(b): service cost vs tau_max, random distribution, fixed cycles (n=200)",
		"3":                  "Fig 3: service cost vs n, variable cycles (linear, dT=10, sigma=2)",
		"4":                  "Fig 4: service cost vs tau_max, variable cycles (n=200, dT=10, sigma=2)",
		"5":                  "Fig 5: service cost vs slot length dT, variable cycles (n=200, sigma=2)",
		"6":                  "Fig 6: service cost vs variance sigma, variable cycles (n=200, dT=10)",
		"ablation-tours":     "Ablation: double-tree vs 2-opt vs cluster-first tour construction (fixed, linear)",
		"ablation-base":      "Ablation: cycle-rounding base 2 vs 3 vs 4 (fixed, linear, n=200)",
		"ablation-q":         "Ablation: service cost vs number of chargers q (fixed, linear, n=200)",
		"ablation-depots":    "Ablation: depot placement strategies (fixed, linear, n=200)",
		"ablation-ratio":     "Ablation: empirical q-rooted TSP approximation ratio vs exact optimum (small n)",
		"ablation-gamma":     "Ablation: EWMA smoothing factor gamma vs cost under variable cycles (n=100)",
		"ablation-guard":     "Ablation: lifetime guard on/off under variable cycles (cost and deaths, n=200)",
		"ablation-clustered": "Ablation: clustered vs uniform deployments, cost vs cluster count (fixed, n=200)",
		"ablation-scale":     "Ablation: planning wall-clock time vs n up to 2000 (MinTotalDistance, O(n^2) check)",
		"ablation-updates":   "Ablation: sensor-report threshold vs cost under variable cycles (n=100, dT=10)",
	}
	return d[id]
}

// Figure builds and runs the sweep reproducing the given paper figure
// (or ablation) under cfg.
func Figure(id string, cfg Config) (Series, error) {
	cfg = cfg.defaults()
	sw, err := figureSweep(id, cfg)
	if err != nil {
		return Series{}, err
	}
	sw.Topologies = cfg.Topologies
	sw.Workers = cfg.Workers
	sw.Seed = cfg.Seed
	sw.Progress = cfg.Progress
	return sw.Run()
}

// FigureParams returns the cell parameters figure id would use at sweep
// value x and topology index topo under cfg, without running anything.
// The benchmark harness uses it to time single figure cells.
func FigureParams(id string, cfg Config, x float64, topo int) (Params, error) {
	cfg = cfg.defaults()
	sw, err := figureSweep(id, cfg)
	if err != nil {
		return Params{}, err
	}
	return sw.Make(x, topo), nil
}

func figureSweep(id string, cfg Config) (Sweep, error) {
	sizes := []float64{100, 200, 300, 400, 500}
	tauMaxes := []float64{1, 5, 10, 20, 30, 40, 50}
	fixedPair := []string{AlgoMTD, AlgoGreedy}
	varPair := []string{AlgoMTDVar, AlgoGreedy}

	switch id {
	case "1a", "1b":
		dist := "linear"
		if id == "1b" {
			dist = "random"
		}
		return Sweep{
			Name: "fig" + id, XLabel: "n", Xs: sizes, Algorithms: fixedPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = int(x)
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = dist
				return p
			},
		}, nil
	case "2a", "2b":
		dist := "linear"
		if id == "2b" {
			dist = "random"
		}
		return Sweep{
			Name: "fig" + id, XLabel: "tau_max", Xs: tauMaxes, Algorithms: fixedPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = x
				p.Sigma = 2
				p.DistName = dist
				return p
			},
		}, nil
	case "3":
		return Sweep{
			Name: "fig3", XLabel: "n", Xs: sizes, Algorithms: varPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = int(x)
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				return p
			},
		}, nil
	case "4":
		return Sweep{
			Name: "fig4", XLabel: "tau_max", Xs: tauMaxes, Algorithms: varPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = x
				p.Sigma = 2
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				return p
			},
		}, nil
	case "5":
		return Sweep{
			Name: "fig5", XLabel: "dT", Xs: []float64{1, 2, 4, 6, 8, 10, 12, 16, 20}, Algorithms: varPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = x
				return p
			},
		}, nil
	case "6":
		return Sweep{
			Name: "fig6", XLabel: "sigma", Xs: []float64{0, 5, 10, 20, 30, 40, 50}, Algorithms: varPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = x
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				return p
			},
		}, nil
	case "ablation-tours":
		return Sweep{
			Name: id, XLabel: "n", Xs: sizes,
			Algorithms: []string{AlgoMTD, AlgoMTDRefined, AlgoMTDVoronoi, AlgoMTDChristo, AlgoChargeAll},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = int(x)
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				return p
			},
		}, nil
	case "ablation-base":
		// The rounding base is swept on the x-axis; MinTotalDistance
		// is the only algorithm.
		return Sweep{
			Name: id, XLabel: "base", Xs: []float64{2, 3, 4},
			Algorithms: []string{AlgoMTD},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Base = x
				return p
			},
		}, nil
	case "ablation-q":
		return Sweep{
			Name: id, XLabel: "q", Xs: []float64{1, 2, 3, 5, 7, 10},
			Algorithms: fixedPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.Q = int(x)
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				return p
			},
		}, nil
	case "ablation-depots":
		// x encodes the placement strategy: 0 base-first, 1 uniform,
		// 2 grid.
		return Sweep{
			Name: id, XLabel: "placement", Xs: []float64{0, 1, 2},
			Algorithms: fixedPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.DepotPlacement = wsn.DepotPlacement(int(x))
				return p
			},
		}, nil
	case "ablation-updates":
		// x = the relative cycle-change threshold a sensor must exceed
		// before reporting to the base station (Section VI-A).
		return Sweep{
			Name: id, XLabel: "threshold", Xs: []float64{0, 0.1, 0.25, 0.5, 1},
			Algorithms: []string{AlgoMTDVar, AlgoGreedy},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 100
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				p.UpdateThreshold = x
				return p
			},
		}, nil
	case "ablation-scale":
		return Sweep{
			Name: id, XLabel: "n", Xs: []float64{100, 200, 500, 1000, 2000},
			Algorithms: []string{AlgoMTD},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = int(x)
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				return p
			},
		}, nil
	case "ablation-clustered":
		// x = number of clusters; x = 0 means the uniform deployment.
		return Sweep{
			Name: id, XLabel: "clusters", Xs: []float64{0, 2, 4, 8, 16},
			Algorithms: fixedPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Clusters = int(x)
				p.Spread = 60
				return p
			},
		}, nil
	case "ablation-guard":
		// Quantifies the cost of the safety fix documented in
		// DESIGN.md: the guarded policy vs the paper-literal trigger.
		return Sweep{
			Name: id, XLabel: "sigma", Xs: []float64{2, 10, 20, 30},
			Algorithms: []string{AlgoMTDVar, AlgoMTDVarNoGuard},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 200
				p.TauMax = 50
				p.Sigma = x
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				return p
			},
		}, nil
	case "ablation-gamma":
		// Smoothed predictions lag real rate changes; this quantifies
		// the cost/safety impact of the paper's EWMA factor γ.
		return Sweep{
			Name: id, XLabel: "gamma", Xs: []float64{0.25, 0.5, 0.75, 1},
			Algorithms: varPair,
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = 100
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				p.Variable = true
				p.SlotDT = 10
				p.Gamma = x
				return p
			},
		}, nil
	case "ablation-ratio":
		return Sweep{
			Name: id, XLabel: "n", Xs: []float64{4, 6, 8, 10},
			Algorithms: []string{AlgoQRootedApprox, AlgoQRootedRefined, AlgoQRootedExact},
			Make: func(x float64, topo int) Params {
				p := cfg.base()
				p.N = int(x)
				p.Q = 2
				p.TauMax = 50
				p.Sigma = 2
				p.DistName = "linear"
				return p
			},
		}, nil
	default:
		known := FigureIDs()
		sort.Strings(known)
		return Sweep{}, fmt.Errorf("experiment: unknown figure %q (known: %v)", id, known)
	}
}

// FigureAlgorithms returns the algorithm labels figure id compares, in
// table order, without running anything.
func FigureAlgorithms(id string) ([]string, error) {
	sw, err := figureSweep(id, Config{}.defaults())
	if err != nil {
		return nil, err
	}
	return sw.Algorithms, nil
}

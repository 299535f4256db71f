package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// workload is one benchmark traffic mix: a closed loop of equally
// sized ops, drawn from the seed, run one at a time by one client.
type workload struct {
	name string
	// rate sizes a run: --seconds s is a fixed list of round(seconds·rate)
	// ops, so the list depends on the arguments only and a faster program
	// finishes it sooner. README.md gives the run length it makes on the
	// reference machine.
	rate float64
	// outputs names the deterministic values each op returns.
	outputs []string
	// finals names the deterministic values finish returns.
	finals []string
	setup  func(seed uint64, ops int, toy bool, tr *tracer) (instance, error)
}

// instance is a set-up workload. op(0) is the untimed warm-up op that
// set-up ends with; ops 1..n are timed.
type instance interface {
	op(i int) opResult
	// finish runs the after-run checks on the summed op outputs and
	// returns cost_ratio and the final deterministic values.
	finish(sums []float64) (finalResult, error)
	close()
}

// opResult is one op's deterministic outputs and the verdict of its
// output checks. slow marks a session-churn batch that carried an
// inline reconcile, timed as reconcile_ms instead of op_ms.
type opResult struct {
	out    []float64
	failed string // first failed check; "" when every check passed
	slow   bool
}

type finalResult struct {
	costRatio float64
	out       []float64
	failed    string
}

var workloads = []*workload{
	{
		name: "paper-fixed", rate: 12.5, setup: setupPaper(false),
		outputs: []string{"mtd_cost", "mtd2opt_cost", "greedy_cost", "greedy_deaths", "mtd_dispatches", "greedy_dispatches"},
	},
	{
		name: "paper-var", rate: 2.5, setup: setupPaper(true),
		outputs: []string{"var_cost", "greedy_cost", "var_deaths", "greedy_deaths", "var_replans", "var_dispatches", "greedy_dispatches"},
	},
	{
		name: "session-churn", rate: 15, setup: setupChurn,
		outputs: []string{"cost", "drift", "need_replan", "replanned", "version"},
		finals:  []string{"patched_cost", "fresh_cost", "replans", "patched_ops", "live_sensors", "slots"},
	},
	{
		name: "robust-mc", rate: 0.8, setup: setupRobust,
		outputs: []string{"nominal_planned", "slack_planned", "replay_driven", "robust_driven",
			"replay_violations", "robust_violations", "replay_deaths", "robust_deaths", "rescued", "inserted"},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seedRoot derives a workload's input stream from the seed argument;
// every input of the run is a labelled split of it.
func seedRoot(seed uint64, name string) *rng.Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.New(seed).Split(h.Sum64())
}

// serial is the rooted configuration every benchmark plan uses: one
// thread of work per op.
var serial = rooted.Options{Workers: 1}

// paperParams is the Section VII cell: Fig. 1(a) at n=500 for the fixed
// regime, Fig. 3 at n=200 (also a point of Figs. 4 and 5) for the
// variable one. toy shrinks it for the tests.
func paperParams(variable, toy bool) experiment.Params {
	p := experiment.Params{
		N: 500, Q: 5, TauMin: 1, TauMax: 50, Sigma: 2, DistName: "linear",
		T: 1000, Dt: 1, Rooted: serial,
	}
	if variable {
		p.N, p.Variable, p.SlotDT = 200, true, 10
	}
	if toy {
		p.N, p.T = 40, 100
	}
	return p
}

// paperCell runs the paper's algorithms on one generated topology per
// op, the way experiment.Prepared.Run does, but calling the layers
// itself so each call can be timed from outside.
type paperCell struct {
	base experiment.Params
	root *rng.Source
	ws   experiment.Scratch
	tr   *tracer
}

func setupPaper(variable bool) func(uint64, int, bool, *tracer) (instance, error) {
	name := "paper-fixed"
	if variable {
		name = "paper-var"
	}
	return func(seed uint64, _ int, toy bool, tr *tracer) (instance, error) {
		return &paperCell{base: paperParams(variable, toy), root: seedRoot(seed, name), tr: tr}, nil
	}
}

// prepare generates op i's topology and its dense distance matrix:
// experiment.PrepareInto split into its two calls, so that generation
// and the matrix build are timed apart.
func (c *paperCell) prepare(i int) (experiment.Params, *experiment.Prepared, error) {
	p := c.base
	p.Seed = c.root.Split(uint64(i)).Seed()
	c.tr.begin("wsn.Generate")
	net, err := p.Network()
	c.tr.end()
	if err != nil {
		return p, nil, err
	}
	c.tr.begin("experiment.PrepareNetInto")
	pr := experiment.PrepareNetInto(net, &c.ws)
	c.tr.end()
	return p, pr, nil
}

func (c *paperCell) op(i int) opResult {
	p, pr, err := c.prepare(i)
	if err != nil {
		return opResult{failed: err.Error()}
	}
	if p.Variable {
		return c.varOp(p, pr)
	}
	return c.fixedOp(p, pr)
}

// fixedOp runs MinTotalDistance, its 2-opt/Or-opt ablation and Greedy
// under the draw-free fixed energy model.
func (c *paperCell) fixedOp(p experiment.Params, pr *experiment.Prepared) opResult {
	net := pr.Net
	r := opResult{out: make([]float64, 6)}
	fail := func(format string, args ...any) {
		if r.failed == "" {
			r.failed = fmt.Sprintf(format, args...)
		}
	}
	for v, refine := range []bool{false, true} {
		opt := core.FixedOptions{Rooted: p.Rooted, Base: p.Base, Space: pr.Space}
		opt.Rooted.Refine = refine
		name := "core.PlanFixed"
		if refine {
			name = "core.PlanFixed+refine"
			c.tr.begin("metric.NearestLists")
		}
		pr.TourOptions(&opt.Rooted, nil)
		if refine {
			c.tr.end()
		}
		c.tr.begin(name)
		plan, err := core.PlanFixed(net, p.T, opt)
		c.tr.end()
		if err != nil {
			fail("%s: %v", name, err)
			continue
		}
		if err := plan.Schedule.Verify(net.Cycles(), 1e-6); err != nil {
			fail("%s schedule: %v", name, err)
		}
		r.out[v] = plan.Cost()
		if !refine {
			r.out[4] = float64(plan.Schedule.Dispatches())
		}
	}
	g := &core.Greedy{Rooted: p.Rooted}
	pr.TourOptions(&g.Rooted, nil)
	model := c.tr.energyModel(energy.NewFixed(net))
	c.tr.begin("sim.Run")
	res, err := sim.Run(net, model, c.tr.wrapPolicy(g, kGreedy), sim.Config{T: p.T, Dt: p.Dt, Space: pr.Space})
	c.tr.end()
	if err != nil {
		fail("greedy: %v", err)
		return r
	}
	r.out[2], r.out[3], r.out[5] = res.Cost(), float64(res.Deaths), float64(res.Schedule.Dispatches())
	if res.Deaths != 0 {
		fail("greedy: %d deaths", res.Deaths)
	}
	return r
}

// varOp runs MinTotalDistance-var and Greedy on one shared seeded
// slotted energy model, as experiment.Prepared shares it across a
// cell's algorithms.
func (c *paperCell) varOp(p experiment.Params, pr *experiment.Prepared) opResult {
	net := pr.Net
	r := opResult{out: make([]float64, 7)}
	fail := func(format string, args ...any) {
		if r.failed == "" {
			r.failed = fmt.Sprintf(format, args...)
		}
	}
	dist, err := p.Dist()
	if err != nil {
		return opResult{failed: err.Error()}
	}
	// The label matches experiment.Prepared's model stream, so a cell
	// here draws the same cycle trajectories as the figure harness.
	slotted, err := energy.NewSlotted(net, dist, p.SlotDT, rng.New(p.Seed).Split(0xE0))
	if err != nil {
		return opResult{failed: err.Error()}
	}
	model := c.tr.energyModel(slotted)
	cfg := sim.Config{T: p.T, Dt: p.Dt, Gamma: p.Gamma, Space: pr.Space}

	v := core.NewVar(p.Rooted)
	pr.TourOptions(&v.Rooted, nil)
	c.tr.begin("sim.Run")
	res, err := sim.Run(net, model, c.tr.wrapPolicy(v, kVar), cfg)
	c.tr.end()
	if err != nil {
		fail("var: %v", err)
	} else {
		r.out[0], r.out[2], r.out[4], r.out[5] = res.Cost(), float64(res.Deaths), float64(v.Replans), float64(res.Schedule.Dispatches())
		if res.Deaths != 0 {
			fail("var: %d deaths", res.Deaths)
		}
		hits, misses := v.MemoStats()
		c.tr.note("core.var_replans", float64(v.Replans))
		c.tr.note("core.var_memo_hits", float64(hits))
		c.tr.note("core.var_memo_lookups", float64(hits+misses))
	}

	g := &core.Greedy{Rooted: p.Rooted}
	pr.TourOptions(&g.Rooted, nil)
	c.tr.begin("sim.Run")
	res, err = sim.Run(net, model, c.tr.wrapPolicy(g, kGreedy), cfg)
	c.tr.end()
	if err != nil {
		fail("greedy: %v", err)
		return r
	}
	r.out[1], r.out[3], r.out[6] = res.Cost(), float64(res.Deaths), float64(res.Schedule.Dispatches())
	if res.Deaths != 0 {
		fail("greedy: %d deaths", res.Deaths)
	}
	return r
}

func (c *paperCell) finish(sums []float64) (finalResult, error) {
	// Both paper workloads put the MinTotalDistance cost first; the
	// Greedy cost is output 2 on paper-fixed and output 1 on paper-var.
	greedy := sums[2]
	if c.base.Variable {
		greedy = sums[1]
	}
	return finalResult{costRatio: sums[0] / greedy}, nil
}

func (c *paperCell) close() {}

// robustCell is one replication of cmd/robust's Monte-Carlo cell.
type robustCell struct {
	n, q  int
	T, dt float64
	root  *rng.Source
	sc    *sim.Scratch
	tr    *tracer
}

// The cmd/robust defaults the cell keeps: cycle distribution, charger
// speed, intensity and slack.
const (
	robustTauMin    = 4
	robustTauMax    = 40
	robustSigma     = 1
	robustSpeed     = 25000
	robustIntensity = 1
	robustEps       = 0.1
)

func setupRobust(seed uint64, _ int, toy bool, tr *tracer) (instance, error) {
	c := &robustCell{n: 150, q: 5, T: 30, dt: 0.2, root: seedRoot(seed, "robust-mc"), sc: sim.NewScratch(), tr: tr}
	if toy {
		c.n, c.T = 30, 6
	}
	return c, nil
}

// op plans a nominal and an ε-slack schedule for one topology, replays
// the nominal plan open-loop and drives the slack plan through
// sim.Redispatch, both inside one disturbance realization.
func (c *robustCell) op(i int) opResult {
	r := opResult{out: make([]float64, 10)}
	c.tr.begin("wsn.Generate")
	net, err := wsn.Generate(c.root.Split(1, uint64(i)), wsn.GenConfig{
		N: c.n, Q: c.q, Dist: wsn.LinearDist{TauMin: robustTauMin, TauMax: robustTauMax, Sigma: robustSigma},
	})
	c.tr.end()
	if err != nil {
		return opResult{failed: err.Error()}
	}
	model := c.tr.energyModel(energy.NewFixed(net))
	cfg := sim.Config{T: c.T, Dt: c.dt}
	dseed := c.root.Split(2, uint64(i))
	world := func() sim.Disturbed {
		m := disturb.Standard(dseed, robustIntensity, disturb.DefaultParams())
		return sim.Disturbed{Model: c.tr.disturbModel(m), Speed: robustSpeed, Scratch: c.sc}
	}

	c.tr.begin("core.PlanFixed")
	nominal, err := core.PlanFixed(net, c.T, core.FixedOptions{Rooted: serial, AlignTau1: c.dt})
	c.tr.end()
	if err != nil {
		return opResult{failed: "nominal plan: " + err.Error()}
	}
	replay := &sim.ScheduleReplay{Schedule: nominal.Schedule}
	c.tr.begin("sim.RunDisturbed")
	base, err := sim.RunDisturbed(net, model, c.tr.wrapPolicy(replay, kReplay), cfg, world())
	c.tr.end()
	if err != nil {
		return opResult{failed: "replay: " + err.Error()}
	}

	c.tr.begin("core.PlanFixed")
	slack, err := core.PlanFixed(net, c.T, core.FixedOptions{Rooted: serial, Slack: robustEps, AlignTau1: c.dt})
	c.tr.end()
	if err != nil {
		return opResult{failed: "slack plan: " + err.Error()}
	}
	rd := &sim.Redispatch{Inner: &sim.ScheduleReplay{Schedule: slack.Schedule}}
	c.tr.begin("sim.RunDisturbed")
	rob, err := sim.RunDisturbed(net, model, c.tr.wrapPolicy(rd, kRedispatch), cfg, world())
	c.tr.end()
	if err != nil {
		return opResult{failed: "redispatch: " + err.Error()}
	}

	r.out = []float64{
		nominal.Cost(), slack.Cost(), base.DrivenCost, rob.DrivenCost,
		float64(base.GapViolations), float64(rob.GapViolations),
		float64(base.Deaths), float64(rob.Deaths),
		float64(rd.Rescued), float64(rd.Inserted),
	}
	if rob.Deaths != 0 {
		r.failed = fmt.Sprintf("ε=%g run: %d deaths", robustEps, rob.Deaths)
	}
	return r
}

func (c *robustCell) finish(sums []float64) (finalResult, error) {
	return finalResult{costRatio: sums[3] / sums[0]}, nil
}

func (c *robustCell) close() {}

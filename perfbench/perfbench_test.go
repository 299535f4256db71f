package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// toyOps is the op count of a toy pass: enough batches for session-churn
// to reconcile at least once.
const toyOps = 13

func toyPass(t *testing.T, w *workload, seed uint64, tr *tracer) *passData {
	t.Helper()
	pd, err := runPass(w, seed, toyOps, true, tr, 1)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	for i, f := range pd.failed {
		if f != "" {
			t.Errorf("%s seed %d op %d failed: %s", w.name, seed, i+1, f)
		}
	}
	if pd.final.failed != "" {
		t.Errorf("%s seed %d after-run check failed: %s", w.name, seed, pd.final.failed)
	}
	return pd
}

// TestWorkloadsDeterministic runs every workload at toy size twice on
// one seed and once on another: a seed's outputs repeat bit for bit,
// and another seed draws other inputs.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := toyPass(t, w, 1, nil), toyPass(t, w, 1, nil), toyPass(t, w, 2, nil)
			if diff := compareOutputs(a, b); diff != "" {
				t.Errorf("seed 1 twice: outputs differ at %s", diff)
			}
			if diff := compareOutputs(a, c); diff == "" {
				t.Errorf("seeds 1 and 2 gave identical outputs")
			}
			var out1, out2 bytes.Buffer
			printOutputs(&out1, w, 1, a)
			printOutputs(&out2, w, 1, b)
			if out1.String() != out2.String() {
				t.Errorf("printed outputs differ:\n%s\n%s", out1.String(), out2.String())
			}
		})
	}
}

// TestTracedPassMatchesUntraced pins that the decorators and the
// session-churn replay leave every workload's outputs unchanged.
func TestTracedPassMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := toyPass(t, w, 3, nil)
			tr := newTracer()
			b := toyPass(t, w, 3, tr)
			if diff := compareOutputs(a, b); diff != "" {
				t.Errorf("traced outputs differ at %s", diff)
			}
			if lt := summarize(tr); lt.calls["op"] != toyOps {
				t.Errorf("traced %d op spans, want %d", lt.calls["op"], toyOps)
			}
		})
	}
}

// TestDecoratorsBitIdentical runs the disturbed simulator with and
// without the model and policy decorators on a small network, including
// the Redispatch path that reads its inner policy's estimators and the
// batch rate path the disturbance decorator forwards.
func TestDecoratorsBitIdentical(t *testing.T) {
	net, err := wsn.Generate(rng.New(5), wsn.GenConfig{N: 40, Q: 3, Dist: wsn.LinearDist{TauMin: 4, TauMax: 40, Sigma: 1}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PlanFixed(net, 12, core.FixedOptions{Slack: 0.1, AlignTau1: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tr *tracer) sim.Result {
		m := disturb.Standard(rng.New(9), 1, disturb.DefaultParams())
		pol := &sim.Redispatch{Inner: &sim.ScheduleReplay{Schedule: plan.Schedule}}
		res, err := sim.RunDisturbed(net, tr.energyModel(energy.NewFixed(net)), tr.wrapPolicy(pol, kRedispatch),
			sim.Config{T: 12, Dt: 0.2}, sim.Disturbed{Model: tr.disturbModel(m), Speed: robustSpeed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil)
	tr := newTracer()
	tr.beginOp(1)
	got := run(tr)
	tr.endOp()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("decorated disturbed run differs:\n got %+v\nwant %+v", got, want)
	}
	if lt := summarize(tr); lt.ctr.Calls[kDisturb] == 0 || lt.ctr.Calls[kRedispatch] == 0 || lt.ctr.Calls[kEnergy] == 0 {
		t.Errorf("decorators counted no calls: %+v", lt.ctr.Calls)
	}
}

// TestPaperCellMatchesHarness pins that the benchmark's paper cells,
// which call the layers one by one, compute what the figure harness
// computes for the same cell.
func TestPaperCellMatchesHarness(t *testing.T) {
	for _, variable := range []bool{false, true} {
		inst, err := setupPaper(variable)(7, 1, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		c := inst.(*paperCell)
		r := c.op(1)
		if r.failed != "" {
			t.Fatal(r.failed)
		}
		p := c.base
		p.Seed = c.root.Split(1).Seed()
		algos := map[string]int{experiment.AlgoMTD: 0, experiment.AlgoMTDRefined: 1, experiment.AlgoGreedy: 2}
		if variable {
			algos = map[string]int{experiment.AlgoMTDVar: 0, experiment.AlgoGreedy: 1}
		}
		for algo, j := range algos {
			out, err := experiment.RunOne(algo, p)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost != r.out[j] { //lint:allow floateq the cell must reproduce the harness bit for bit
				t.Errorf("variable=%v %s: cost %v, harness %v", variable, algo, r.out[j], out.Cost)
			}
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, p int
		v    float64
	}{
		{100, 90, 90},
		{250, 96, 240},
		{200, 95, 190},
		{11, 9, 1},
		{10, 0, 1},
		{1, 0, 1},
		{0, 0, 0},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.p || v != tc.v { //lint:allow floateq the tail is one of the integer samples, exactly
			t.Errorf("tail of %d samples = p%d %v, want p%d %v", tc.n, p, v, tc.p, tc.v)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 { //lint:allow floateq (2+3)/2 is exact in binary
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestResultLine runs the whole measurement at toy size and checks the
// contract of the line it prints: exactly the end-to-end metrics, or
// with tracing exactly the per-layer ones, each with its unit.
func TestResultLine(t *testing.T) {
	w := workloadByName("session-churn")
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		res, err := measure(w, 1, toyOps, true, traced, t.TempDir(), &out, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if !res.Correct || res.Failed != 0 || res.Attempted != toyOps+1 || len(res.Metrics) != len(want) {
			t.Errorf("traced=%v: result %+v", traced, res)
		}
		for _, m := range want {
			if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, m.name, v, m.unit)
			}
		}
		if !strings.Contains(out.String(), "digest ") {
			t.Errorf("no deterministic outputs printed:\n%s", out.String())
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the checkout root to the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %s, want %s", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("listed %d end-to-end and %d per-layer metrics, reported %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, want %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// Command perfbench is the repository benchmark. It drives four
// closed-loop, single-client workloads over the paper reproduction, the
// chargerd delta sessions and the disturbed Monte-Carlo, and prints
// their end-to-end metrics, or with --trace 1 the per-layer metrics of
// a traced pass. README.md in this directory describes the workloads,
// the metrics and the measured spread; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload paper-fixed --seed 1 --seconds 20 --trace 0
//
// A run is a fixed list of equally sized ops drawn from --seed, run one
// after another on one goroutine. Standard output carries the run's
// deterministic outputs (two runs of one seed print the same lines)
// and, as its last line, one JSON object with the metrics; the timing
// report goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// processStart approximates process start: package variables are
// initialized before main runs.
var processStart = time.Now()

// setupReps is how many times a --trace 0 run sets up its workload;
// setup_s takes the median set-up.
const setupReps = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := fs.Float64("seconds", 20, "nominal run length in seconds; sizes the fixed op list")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 adds a traced pass and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced pass writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	ops := int(math.Round(*seconds * w.rate))
	if ops < 1 {
		ops = 1
	}
	res, err := measure(w, *seed, ops, false, *trace == 1, *traceDir, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// passData is what one pass over the op list measured.
type passData struct {
	// startS is the time from process start to the pass's first set-up,
	// setupS each set-up's time.
	startS  float64
	setupS  []float64
	outs    [][]float64
	failed  []string
	durMs   []float64
	slow    []bool
	wallS   float64
	final   finalResult
	heapSys float64
	// Runtime deltas over the timed ops.
	allocBytes, gcCycles, gcCPU, usedCPU float64
}

// runPass sets the workload up reps times and keeps the last instance,
// closing the others. Every set-up is timed alike, from its start to
// where the timed ops begin: building the instance, its warm-up op and
// a forced GC. It then times ops 1..n on the kept instance and runs its
// after-run checks.
func runPass(w *workload, seed uint64, n int, toy bool, tr *tracer, reps int) (*passData, error) {
	pd := &passData{startS: time.Since(processStart).Seconds()}
	var inst instance
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		in, err := w.setup(seed, n, toy, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if warm := in.op(0); warm.failed != "" {
			in.close()
			return nil, fmt.Errorf("warm-up op: %s", warm.failed)
		}
		runtime.GC()
		pd.setupS = append(pd.setupS, time.Since(start).Seconds())
		inst = in
	}
	defer inst.close()

	var m0, m1 runtime.MemStats
	cpu0 := cpuSeconds()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		tr.beginOp(i)
		s := time.Now()
		r := inst.op(i)
		d := time.Since(s)
		tr.endOp()
		pd.outs = append(pd.outs, r.out)
		pd.failed = append(pd.failed, r.failed)
		pd.durMs = append(pd.durMs, float64(d)/1e6)
		pd.slow = append(pd.slow, r.slow)
	}
	pd.wallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds()
	pd.heapSys = float64(m1.HeapSys)
	pd.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	pd.gcCycles = float64(m1.NumGC - m0.NumGC)
	pd.gcCPU = cpu1[0] - cpu0[0]
	pd.usedCPU = (cpu1[1] - cpu0[1]) - (cpu1[2] - cpu0[2])

	final, err := inst.finish(sumOutputs(len(w.outputs), pd.outs))
	if err != nil {
		return nil, fmt.Errorf("after-run check: %w", err)
	}
	pd.final = final
	return pd, nil
}

// cpuSeconds reads the runtime's cumulative GC, total and idle CPU time.
func cpuSeconds() [3]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var out [3]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

func sumOutputs(width int, outs [][]float64) []float64 {
	sums := make([]float64, width)
	for _, o := range outs {
		for j := range o {
			sums[j] += o[j]
		}
	}
	return sums
}

// measure runs the workload and returns the result line. The untraced
// pass gives the end-to-end metrics. With traced it is followed by a
// traced pass over the same op list, whose outputs must equal the
// untraced pass's, and the per-layer metrics are returned instead.
func measure(w *workload, seed uint64, n int, toy, traced bool, traceDir string, stdout, stderr io.Writer) (*result, error) {
	reps := setupReps
	if traced {
		reps = 1 // the traced run reports no setup_s
	}
	a, err := runPass(w, seed, n, toy, nil, reps)
	if err != nil {
		return nil, err
	}
	all := endToEndValues(a)
	res := &result{Attempted: n, Metrics: map[string]value{}}
	for i, f := range a.failed {
		if f != "" {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: op %d failed: %s\n", i+1, f)
		}
	}
	if len(w.finals) > 0 {
		res.Attempted++
		if a.final.failed != "" {
			res.Failed++
			fmt.Fprintf(stderr, "perfbench: after-run check failed: %s\n", a.final.failed)
		}
	}
	res.Correct = res.Failed == 0
	all["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	printOutputs(stdout, w, seed, a)
	report(stderr, w, a, all)

	list := endToEnd
	if traced {
		tr := newTracer()
		b, err := runPass(w, seed, n, toy, tr, 1)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if diff := compareOutputs(a, b); diff != "" {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: traced outputs differ from untraced: %s\n", diff)
		}
		for k, v := range layerValues(tr, n, a, b) {
			all[k] = v
		}
		reportLayers(stderr, w, tr, n, all)
		if traceDir != "" {
			if err := tr.write(spanPath(traceDir, w.name, seed)); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
		list = perLayer
	}
	for _, m := range list {
		v, ok := all[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Only failed ops leave a ratio without a denominator.
			v, res.Correct = 0, false
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	return res, nil
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a --trace 0 run reports; BENCHMARK.json lists the
// same names. The other end-to-end measurements (op_ms.tail,
// heap_sys_bytes, reconcile_ms.p50, error_rate) spread too much between
// runs, are zero by design or exist on one workload only; they are
// printed on standard error and reported with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms.p50", "ms"},
	{"cost_ratio", "ratio"},
}

// perLayer is what a --trace 1 run reports. A layer a workload does not
// call reads 0.
var perLayer = []metricDef{
	{"wsn.generate_ms", "ms/call"},
	{"experiment.prepare_ms", "ms/op"},
	{"metric.lists_ms", "ms/op"},
	{"core.plan_ms", "ms/op"},
	{"core.plan_refined_ms", "ms/op"},
	{"core.greedy_ms", "ms/op"},
	{"core.greedy_calls", "calls/op"},
	{"core.var_ms", "ms/op"},
	{"core.var_calls", "calls/op"},
	{"core.var_replans", "1/op"},
	{"core.var_memo_hit_ratio", "ratio"},
	{"energy.model_ms", "ms/op"},
	{"energy.model_calls", "calls/op"},
	{"sim.run_self_ms", "ms/op"},
	{"disturb.model_ms", "ms/op"},
	{"disturb.model_calls", "calls/op"},
	{"sim.disturbed_self_ms", "ms/op"},
	{"sim.redispatch_ms", "ms/op"},
	{"sim.redispatch_calls", "calls/op"},
	{"sim.replay_ms", "ms/op"},
	{"delta.apply_ms.p50", "ms"},
	{"delta.apply_ms.tail", "ms"},
	{"delta.patch_ratio", "ratio"},
	{"delta.replan_ms.p50", "ms"},
	{"delta.replans", "count"},
	{"serve.overhead_ms.p50", "ms"},
	{"reconcile_ms.p50", "ms"},
	{"op_ms.tail", "ms"},
	{"heap_sys_bytes", "B"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_op", "1/op"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// unitOf returns a metric's unit from the metric lists; the one
// measurement on neither, error_rate, is a ratio.
func unitOf(name string) string {
	for _, l := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range l {
			if m.name == name {
				return m.unit
			}
		}
	}
	return "ratio"
}

// split returns the op durations timed as op_ms and as reconcile_ms.
func (a *passData) split() (fast, slow []float64) {
	for i, d := range a.durMs {
		if a.slow[i] {
			slow = append(slow, d)
		} else {
			fast = append(fast, d)
		}
	}
	return fast, slow
}

// endToEndValues computes every end-to-end measurement of an untraced
// pass. setup_s is the time from process start to the first timed op
// of a process that sets up once, with the set-up itself taken as the
// median of the pass's set-ups. A session-churn batch that carried an
// inline reconcile is a reconcile_ms sample, not an op_ms one.
func endToEndValues(a *passData) map[string]float64 {
	fast, slow := a.split()
	_, tailMs := tail(fast)
	return map[string]float64{
		"setup_s":          a.startS + median(a.setupS),
		"ops_per_s":        float64(len(a.durMs)) / a.wallS,
		"op_ms.p50":        median(fast),
		"op_ms.tail":       tailMs,
		"reconcile_ms.p50": median(slow),
		"heap_sys_bytes":   a.heapSys,
		"cost_ratio":       a.final.costRatio,
	}
}

// layerValues computes the per-layer metrics from the traced pass b and
// the runtime counters of the untraced pass a.
func layerValues(tr *tracer, n int, a, b *passData) map[string]float64 {
	lt := summarize(tr)
	ops := float64(n)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	_, applyTail := tail(lt.samples["delta.Apply"])
	// The traced pass also replays every session-churn batch straight
	// into delta.State; that replay is measurement, not tracing cost.
	replay := float64(lt.total["delta.Apply"]+lt.total["delta.Replan"]) / 1e9
	return map[string]float64{
		"wsn.generate_ms":            lt.perCallMs("wsn.Generate"),
		"experiment.prepare_ms":      lt.perOpMs("experiment.PrepareNetInto", n),
		"metric.lists_ms":            lt.perOpMs("metric.NearestLists", n),
		"core.plan_ms":               lt.perOpMs("core.PlanFixed", n),
		"core.plan_refined_ms":       lt.perOpMs("core.PlanFixed+refine", n),
		"core.greedy_ms":             lt.busyMs(kGreedy, n),
		"core.greedy_calls":          lt.callsPerOp(kGreedy, n),
		"core.var_ms":                lt.busyMs(kVar, n),
		"core.var_calls":             lt.callsPerOp(kVar, n),
		"core.var_replans":           tr.notes["core.var_replans"] / ops,
		"core.var_memo_hit_ratio":    ratio(tr.notes["core.var_memo_hits"], tr.notes["core.var_memo_lookups"]),
		"energy.model_ms":            lt.busyMs(kEnergy, n),
		"energy.model_calls":         lt.callsPerOp(kEnergy, n),
		"sim.run_self_ms":            lt.selfRun / 1e6 / ops,
		"disturb.model_ms":           lt.busyMs(kDisturb, n),
		"disturb.model_calls":        lt.callsPerOp(kDisturb, n),
		"sim.disturbed_self_ms":      lt.selfDisturbed / 1e6 / ops,
		"sim.redispatch_ms":          lt.busyMs(kRedispatch, n),
		"sim.redispatch_calls":       lt.callsPerOp(kRedispatch, n),
		"sim.replay_ms":              lt.busyMs(kReplay, n),
		"delta.apply_ms.p50":         median(lt.samples["delta.Apply"]),
		"delta.apply_ms.tail":        applyTail,
		"delta.patch_ratio":          ratio(tr.notes["delta.patched_ops"], tr.notes["delta.ops"]),
		"delta.replan_ms.p50":        median(lt.samples["delta.Replan"]),
		"delta.replans":              float64(lt.calls["delta.Replan"]),
		"serve.overhead_ms.p50":      median(serveOverhead(tr)),
		"runtime.alloc_bytes_per_op": a.allocBytes / ops,
		"runtime.gc_cycles_per_op":   a.gcCycles / ops,
		"runtime.gc_cpu_frac":        ratio(a.gcCPU, a.usedCPU),
		"trace.overhead_frac":        (b.wallS-replay)/a.wallS - 1,
	}
}

// serveOverhead returns, per timed session-churn batch, the handler's
// time minus the direct replay's Apply and Replan time for that batch:
// what the HTTP layer, JSON and the session shard add.
func serveOverhead(tr *tracer) []float64 {
	handler := map[int]int64{}
	inner := map[int]int64{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Op < 1 {
			continue
		}
		switch s.Name {
		case "serve.handler":
			handler[s.Op] += s.dur()
		case "delta.Apply", "delta.Replan":
			inner[s.Op] += s.dur()
		}
	}
	var out []float64
	for op, h := range handler {
		out = append(out, float64(h-inner[op])/1e6)
	}
	return out
}

// compareOutputs returns "" when two passes produced bit-identical
// outputs and verdicts, or a description of the first difference.
func compareOutputs(a, b *passData) string {
	if len(a.outs) != len(b.outs) {
		return fmt.Sprintf("%d ops vs %d", len(a.outs), len(b.outs))
	}
	for i := range a.outs {
		if !sameBits(a.outs[i], b.outs[i]) || a.failed[i] != b.failed[i] || a.slow[i] != b.slow[i] {
			return fmt.Sprintf("op %d", i+1)
		}
	}
	if !sameBits(a.final.out, b.final.out) || !sameBits([]float64{a.final.costRatio}, []float64{b.final.costRatio}) ||
		a.final.failed != b.final.failed {
		return "after-run outputs"
	}
	return ""
}

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// printOutputs writes the pass's deterministic outputs: the op count,
// every output summed over the ops, the after-run values, the failure
// count and an FNV-1a digest of every op's outputs bit for bit.
func printOutputs(out io.Writer, w *workload, seed uint64, a *passData) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(xs []float64) {
		for _, x := range xs {
			b := math.Float64bits(x)
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	failed := 0
	for i, o := range a.outs {
		put(o)
		if a.failed[i] != "" {
			failed++
		}
	}
	put(a.final.out)
	put([]float64{a.final.costRatio})
	fmt.Fprintf(out, "workload %s seed %d ops %d\n", w.name, seed, len(a.outs))
	for j, s := range sumOutputs(len(w.outputs), a.outs) {
		fmt.Fprintf(out, "sum %s %.17g\n", w.outputs[j], s)
	}
	for j, f := range w.finals {
		if j < len(a.final.out) {
			fmt.Fprintf(out, "final %s %.17g\n", f, a.final.out[j])
		}
	}
	fmt.Fprintf(out, "cost_ratio %.17g\nfailed_ops %d\ndigest %016x\n", a.final.costRatio, failed, h.Sum64())
}

// report writes the end-to-end timings, with units, to standard error.
func report(out io.Writer, w *workload, a *passData, all map[string]float64) {
	fastMs, slowMs := a.split()
	fast := len(fastMs)
	p, _ := tail(fastMs)
	fmt.Fprintf(out, "%s: %d ops in %.3f s, GOMAXPROCS %d\n", w.name, len(a.durMs), a.wallS, runtime.GOMAXPROCS(0))
	for _, k := range []string{"setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "reconcile_ms.p50", "heap_sys_bytes", "cost_ratio", "error_rate"} {
		note := ""
		switch k {
		case "op_ms.p50":
			note = fmt.Sprintf("  (%d samples)", fast)
		case "op_ms.tail":
			note = fmt.Sprintf("  (p%d of %d samples)", p, fast)
		case "reconcile_ms.p50":
			note = fmt.Sprintf("  (%d samples)", len(slowMs))
		case "setup_s":
			note = fmt.Sprintf("  (%.4g s to the first set-up + median of set-ups %.6g)", a.startS, a.setupS)
		}
		fmt.Fprintf(out, "  %-18s %14.6g %s%s\n", k, all[k], unitOf(k), note)
	}
}

// reportLayers writes the per-layer metrics, and each layer's share of
// the traced ops' wall time, to standard error. The shares are
// exclusive: a policy's share leaves out the model calls it made, and
// the tracing cost of the counted calls is a share of its own.
func reportLayers(out io.Writer, w *workload, tr *tracer, n int, all map[string]float64) {
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-27s %14.6g %s\n", m.name, all[m.name], m.unit)
	}
	lt := summarize(tr)
	opNs := float64(lt.total["op"])
	if opNs == 0 {
		return
	}
	fmt.Fprintf(out, "%s: share of traced op time (%.4g ms/op; counted call costs %.1f ns, %.1f ns of it busy)\n",
		w.name, opNs/1e6/float64(n), tr.cost, tr.bias)
	share := func(name string, ns float64) {
		if ns != 0 {
			fmt.Fprintf(out, "  %-27s %6.1f%%\n", name, 100*ns/opNs)
		}
	}
	for _, k := range []string{"wsn.Generate", "experiment.PrepareNetInto", "metric.NearestLists", "core.PlanFixed",
		"core.PlanFixed+refine", "serve.handler", "delta.Apply", "delta.Replan"} {
		share(k, float64(lt.total[k]))
	}
	share("policies (self)", lt.policySelf)
	share("energy.Model", lt.busy[kEnergy])
	share("disturb.Model", lt.busy[kDisturb])
	share("sim.Run (self)", lt.selfRun)
	share("sim.RunDisturbed (self)", lt.selfDisturbed)
	share("tracing cost", lt.overhead)
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/disturb"
	"repro/internal/energy"
	"repro/internal/rooted"
	"repro/internal/sim"
)

// kind names a boundary that is crossed once per epoch or once per
// sensor. Such calls are too many to keep a span each, so the tracer
// adds their count and busy time to the current op's span instead.
type kind int

const (
	kEnergy     kind = iota // energy.Model calls
	kDisturb                // disturb.Model calls
	kGreedy                 // core.Greedy Init and Decide
	kVar                    // core.Var Init and Decide
	kRedispatch             // sim.Redispatch Init and Decide (outer policy only)
	kReplay                 // sim.ScheduleReplay Init and Decide (outer policy only)
	nKinds
	noPolicy kind = -1
)

var (
	models   = []kind{kEnergy, kDisturb}
	policies = []kind{kGreedy, kVar, kRedispatch, kReplay}
)

// counters are one op's per-kind call counts and busy nanoseconds.
// Busy sums the timed calls, a sampled energy call weighted by the
// stride it stands for (see tracedEnergy). A policy reads the energy
// and disturbance models while it decides: model calls made inside a
// policy call are also counted by model kind in the Nested fields and
// by the policy they were made in in the InPolicy fields, so that every
// nanosecond is charged to one layer.
type counters struct {
	Calls         [nKinds]int64   `json:"calls"`
	Timed         [nKinds]int64   `json:"timed"`
	Busy          [nKinds]float64 `json:"busy_ns"`
	NestedCalls   [nKinds]int64   `json:"nested_calls"`
	NestedTimed   [nKinds]int64   `json:"nested_timed"`
	NestedBusy    [nKinds]float64 `json:"nested_busy_ns"`
	InPolicyCalls [nKinds]int64   `json:"in_policy_calls"`
	InPolicyTimed [nKinds]int64   `json:"in_policy_timed"`
}

// span is one timed call at a coarse layer boundary. Start and End are
// nanoseconds since the tracer started; Op is the op the call belongs
// to (-1 during set-up) and Parent the index of the enclosing span, -1
// for a top-level span. Only op spans carry counters.
type span struct {
	Name     string    `json:"name"`
	Op       int       `json:"op"`
	Parent   int       `json:"parent"`
	Start    int64     `json:"start_ns"`
	End      int64     `json:"end_ns"`
	Counters *counters `json:"counters,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced pass in memory. A nil *tracer is
// the untraced run: every method is a no-op and no decorator is
// installed, so the untraced run calls the program exactly as a user
// would.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indices
	op     int   // current op index, -1 outside ops
	ctr    *counters
	policy kind // the decorated policy whose call is running, or noPolicy
	// notes are deterministic per-layer counts the workloads read after
	// their calls (replans, memo hits, ...), summed over the pass.
	notes map[string]float64
	// bias is the busy time a timed call is charged beyond its own work,
	// cost the whole time timing a call adds to its caller, and count
	// what counting an untimed call adds, all in ns per call (see
	// calibrate).
	bias, cost, count float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), op: -1, ctr: &counters{}, policy: noPolicy, notes: map[string]float64{}}
	t.calibrate()
	return t
}

// constModel is the cheapest energy.Model: calibrate times it.
type constModel struct{}

func (constModel) Cycle(int, float64) float64 { return 1 }
func (constModel) Rate(int, float64) float64  { return 1 }
func (constModel) SlotLength() float64        { return 1 }

// calibrate measures what tracing a call costs. A paper op makes about
// a million energy.Model calls that each take nanoseconds, so the clock
// reads around a timed call are large against the call itself. The
// medians over a few batches of timed and of counted-only calls to a
// constant model give bias, cost and count, which the per-layer metrics
// take out per call.
func (t *tracer) calibrate() {
	const batch, reps = 20000, 7
	var inner energy.Model = constModel{}
	var bias, cost, count []float64
	for r := 0; r < reps; r++ {
		t.ctr = &counters{}
		s := time.Now()
		for i := 0; i < batch; i++ {
			c := time.Now()
			inner.Rate(i, 0)
			t.add(kEnergy, c, 1)
		}
		cost = append(cost, float64(time.Since(s))/batch)
		bias = append(bias, t.ctr.Busy[kEnergy]/batch)
		s = time.Now()
		for i := 0; i < batch; i++ {
			inner.Rate(i, 0)
			t.tally(kEnergy)
		}
		count = append(count, float64(time.Since(s))/batch)
	}
	t.ctr = &counters{}
	t.bias, t.cost, t.count = median(bias), median(cost), median(count)
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = t.now()
}

// beginOp opens the span of op i; counted calls until endOp land on it.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.begin("op")
	t.ctr = &counters{}
	t.spans[len(t.spans)-1].Counters = t.ctr
}

// endOp closes the current op's span. Calls counted outside an op
// (set-up and its warm-up op) go to a discarded counters value.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.end()
	t.op = -1
	t.ctr = &counters{}
}

// note adds v to the deterministic per-layer count name. Like the span
// and counter sums, the notes cover the timed ops only: set-up and its
// warm-up op are left out.
func (t *tracer) note(name string, v float64) {
	if t != nil && t.op >= 1 {
		t.notes[name] += v
	}
}

// add charges one timed call of kind k that started at s, standing
// for w calls' busy time.
func (t *tracer) add(k kind, s time.Time, w float64) {
	busy := float64(time.Since(s)) * w
	c := t.ctr
	c.Calls[k]++
	c.Timed[k]++
	c.Busy[k] += busy
	if t.policy != noPolicy {
		c.NestedCalls[k]++
		c.NestedTimed[k]++
		c.NestedBusy[k] += busy
		c.InPolicyCalls[t.policy]++
		c.InPolicyTimed[t.policy]++
	}
}

// tally counts one untimed call of kind k.
func (t *tracer) tally(k kind) {
	c := t.ctr
	c.Calls[k]++
	if t.policy != noPolicy {
		c.NestedCalls[k]++
		c.InPolicyCalls[t.policy]++
	}
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// energyModel returns m, decorated with call timing when tracing.
func (t *tracer) energyModel(m energy.Model) energy.Model {
	if t == nil {
		return m
	}
	return &tracedEnergy{inner: m, tr: t}
}

// disturbModel returns m, decorated with call timing when tracing.
func (t *tracer) disturbModel(m disturb.Model) disturb.Model {
	if t == nil {
		return m
	}
	return &tracedDisturb{inner: m, tr: t}
}

// wrapPolicy returns p, decorated with call timing under kind k when
// tracing. Only an outermost policy may be decorated: sim.Redispatch
// type-asserts its Inner for estimator interfaces a decorator would hide.
func (t *tracer) wrapPolicy(p sim.Policy, k kind) sim.Policy {
	if t == nil {
		return p
	}
	return &tracedPolicy{inner: p, tr: t, k: k}
}

// sampleStride is how many energy.Model calls one sampled timing
// stands for.
const sampleStride = 64

// tracedEnergy times energy.Model calls. It times the first call at
// each new simulation time exactly, since a model that draws lazily
// (energy.Slotted) does its work there, and one in sampleStride of the
// others, weighted by the stride; the rest it only counts. Timing every
// call would triple a paper op.
type tracedEnergy struct {
	inner energy.Model
	tr    *tracer
	lastT float64
	n     int
}

// weight returns the weight of a timed call at t, or 0 for an untimed one.
func (m *tracedEnergy) weight(t float64) float64 {
	if t != m.lastT { //lint:allow floateq a new simulation instant is an exact change of t
		m.lastT = t
		return 1
	}
	m.n++
	if m.n%sampleStride == 0 {
		return sampleStride
	}
	return 0
}

func (m *tracedEnergy) Cycle(i int, t float64) float64 {
	w := m.weight(t)
	if w == 0 {
		v := m.inner.Cycle(i, t)
		m.tr.tally(kEnergy)
		return v
	}
	s := time.Now()
	v := m.inner.Cycle(i, t)
	m.tr.add(kEnergy, s, w)
	return v
}

func (m *tracedEnergy) Rate(i int, t float64) float64 {
	w := m.weight(t)
	if w == 0 {
		v := m.inner.Rate(i, t)
		m.tr.tally(kEnergy)
		return v
	}
	s := time.Now()
	v := m.inner.Rate(i, t)
	m.tr.add(kEnergy, s, w)
	return v
}

func (m *tracedEnergy) SlotLength() float64 { return m.inner.SlotLength() }

// tracedDisturb times every disturb.Model call. It implements
// disturb.RateMultiplier so the simulator keeps its batch rate path:
// disturb.RateFactors starts dst at 1, and 1·f is f exactly, so
// multiplying in the inner model's factors is bit-identical to the
// undecorated call.
type tracedDisturb struct {
	inner disturb.Model
	tr    *tracer
	buf   []float64
}

func (m *tracedDisturb) Name() string { return m.inner.Name() }

func (m *tracedDisturb) TravelFactor(epoch, tour, leg int) float64 {
	s := time.Now()
	v := m.inner.TravelFactor(epoch, tour, leg)
	m.tr.add(kDisturb, s, 1)
	return v
}

func (m *tracedDisturb) RateFactor(i int, t float64) float64 {
	s := time.Now()
	v := m.inner.RateFactor(i, t)
	m.tr.add(kDisturb, s, 1)
	return v
}

func (m *tracedDisturb) RateStep() float64 { return m.inner.RateStep() }

func (m *tracedDisturb) ObsDelay(i, epoch int) int {
	s := time.Now()
	v := m.inner.ObsDelay(i, epoch)
	m.tr.add(kDisturb, s, 1)
	return v
}

func (m *tracedDisturb) Windows(q int, T float64) []disturb.Window {
	s := time.Now()
	v := m.inner.Windows(q, T)
	m.tr.add(kDisturb, s, 1)
	return v
}

func (m *tracedDisturb) MulRateFactors(dst []float64, t float64) {
	s := time.Now()
	if cap(m.buf) < len(dst) {
		m.buf = make([]float64, len(dst))
	}
	buf := m.buf[:len(dst)]
	disturb.RateFactors(m.inner, buf, t)
	for i := range dst {
		dst[i] *= buf[i]
	}
	m.tr.add(kDisturb, s, 1)
}

// tracedPolicy times a policy's Init and Decide calls.
type tracedPolicy struct {
	inner sim.Policy
	tr    *tracer
	k     kind
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Init(env *sim.Env) error {
	s := time.Now()
	p.tr.policy = p.k
	err := p.inner.Init(env)
	p.tr.policy = noPolicy
	p.tr.add(p.k, s, 1)
	return err
}

func (p *tracedPolicy) Decide(env *sim.Env, t float64) ([]rooted.Tour, error) {
	s := time.Now()
	p.tr.policy = p.k
	tours, err := p.inner.Decide(env, t)
	p.tr.policy = noPolicy
	p.tr.add(p.k, s, 1)
	return tours, err
}

// layerTimes sums a traced pass's spans by name over the timed ops
// (set-up spans, op -1, apart in setupTotal and setupCalls), keeps each
// name's per-call samples, and turns the op spans' counters into busy
// times with the tracing cost taken out.
type layerTimes struct {
	total      map[string]int64
	calls      map[string]int
	samples    map[string][]float64 // ms per call
	setupTotal map[string]int64
	setupCalls map[string]int
	ctr        counters
	// busy is each kind's ns less the tracing cost; a policy's includes
	// the model calls it made. policySelf is the policies' busy ns less
	// those model calls. selfRun and selfDisturbed are the sim runners'
	// self ns: runner spans less the policy and model calls and their
	// tracing cost. overhead is the tracing cost of the counted calls.
	busy                   [nKinds]float64
	policySelf             float64
	selfRun, selfDisturbed float64
	overhead               float64
}

// costOf is what tracing timed and untimed calls adds to their caller.
func (t *tracer) costOf(timed, untimed int64) float64 {
	return float64(timed)*t.cost + float64(untimed)*t.count
}

func summarize(t *tracer) layerTimes {
	lt := layerTimes{
		total: map[string]int64{}, calls: map[string]int{}, samples: map[string][]float64{},
		setupTotal: map[string]int64{}, setupCalls: map[string]int{},
	}
	var charged [2]float64 // traced-call ns inside sim.Run and sim.RunDisturbed ops
	for i := range t.spans {
		s := &t.spans[i]
		if s.Op < 0 {
			lt.setupTotal[s.Name] += s.dur()
			lt.setupCalls[s.Name]++
			continue
		}
		lt.total[s.Name] += s.dur()
		lt.calls[s.Name]++
		lt.samples[s.Name] = append(lt.samples[s.Name], float64(s.dur())/1e6)
		c := s.Counters
		if c == nil {
			continue
		}
		var ch float64
		for k := kind(0); k < nKinds; k++ {
			lt.ctr.Calls[k] += c.Calls[k]
			lt.ctr.Timed[k] += c.Timed[k]
			lt.ctr.Busy[k] += c.Busy[k]
			lt.ctr.NestedCalls[k] += c.NestedCalls[k]
			lt.ctr.NestedTimed[k] += c.NestedTimed[k]
			lt.ctr.NestedBusy[k] += c.NestedBusy[k]
			lt.ctr.InPolicyCalls[k] += c.InPolicyCalls[k]
			lt.ctr.InPolicyTimed[k] += c.InPolicyTimed[k]
			lt.overhead += t.costOf(c.Timed[k], c.Calls[k]-c.Timed[k])
			// The calls made outside every policy call, and the policy
			// calls themselves, cost the runner their work plus their
			// tracing cost; nested calls are inside a policy's time.
			calls, timed := c.Calls[k]-c.NestedCalls[k], c.Timed[k]-c.NestedTimed[k]
			ch += c.Busy[k] - c.NestedBusy[k] - float64(calls)*t.bias + t.costOf(timed, calls-timed)
		}
		// An op drives one kind of runner; disturbed ones count disturb calls.
		if c.Calls[kDisturb] > 0 {
			charged[1] += ch
		} else {
			charged[0] += ch
		}
	}
	var nested float64
	for _, k := range models {
		lt.busy[k] = lt.ctr.Busy[k] - float64(lt.ctr.Calls[k])*t.bias
		nested += lt.ctr.NestedBusy[k] - float64(lt.ctr.NestedCalls[k])*t.bias
	}
	for _, k := range policies {
		in := lt.ctr.InPolicyCalls[k]
		lt.busy[k] = lt.ctr.Busy[k] - float64(lt.ctr.Calls[k])*t.bias - t.costOf(lt.ctr.InPolicyTimed[k], in-lt.ctr.InPolicyTimed[k])
		lt.policySelf += lt.busy[k]
	}
	lt.policySelf -= nested
	if run := float64(lt.total["sim.Run"]); run > 0 {
		lt.selfRun = run - charged[0]
	}
	if run := float64(lt.total["sim.RunDisturbed"]); run > 0 {
		lt.selfDisturbed = run - charged[1]
	}
	return lt
}

func (lt *layerTimes) perOpMs(name string, ops int) float64 {
	return float64(lt.total[name]) / 1e6 / float64(ops)
}

// perCallMs is the mean duration of a call named name, set-up included.
func (lt *layerTimes) perCallMs(name string) float64 {
	n := lt.calls[name] + lt.setupCalls[name]
	if n == 0 {
		return 0
	}
	return float64(lt.total[name]+lt.setupTotal[name]) / 1e6 / float64(n)
}

func (lt *layerTimes) busyMs(k kind, ops int) float64 {
	return lt.busy[k] / 1e6 / float64(ops)
}

func (lt *layerTimes) callsPerOp(k kind, ops int) float64 {
	return float64(lt.ctr.Calls[k]) / float64(ops)
}

func spanPath(dir, workload string, seed uint64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

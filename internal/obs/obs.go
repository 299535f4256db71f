// Package obs is the repo's stdlib-only observability layer: a metrics
// registry (counters, gauges, single-label counter vectors, fixed-bucket
// histograms) with a deterministic Prometheus-compatible text
// exposition. It exists so the serving layer (internal/serve,
// cmd/chargerd) can be measured in production without adding a
// dependency; everything here is sync/atomic over plain structs.
//
// All metric mutators are safe for concurrent use and never allocate in
// steady state; WriteText takes a snapshot that is deterministic up to
// the racing increments of a live process (names and series print in
// sorted order).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them as a plain-text
// /metrics payload. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one registered metric name: its metadata plus the object.
type family struct {
	name, help, typ string
	metric          textMetric
}

// textMetric is anything the registry can render.
type textMetric interface {
	writeText(w io.Writer, name string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// register returns the existing family for name (verifying its type) or
// installs the one built by mk.
func (r *Registry) register(name, help, typ string, mk func() textMetric) textMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
		}
		return f.metric
	}
	m := mk()
	r.fams[name] = &family{name: name, help: help, typ: typ, metric: m}
	return m
}

// Counter returns the monotonically increasing counter registered under
// name, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() textMetric { return &Counter{} }).(*Counter)
}

// CounterVec returns the counter family registered under name with one
// label dimension, creating it on first use.
func (r *Registry) CounterVec(name, label, help string) *CounterVec {
	return r.register(name, help, "counter", func() textMetric {
		return &CounterVec{label: label, by: map[string]*Counter{}}
	}).(*CounterVec)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() textMetric { return &Gauge{} }).(*Gauge)
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it on first use with the given upper bucket bounds (sorted
// ascending; a +Inf bucket is implicit). Re-registration ignores the
// bounds and returns the existing histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, "histogram", func() textMetric { return NewHistogram(bounds) }).(*Histogram)
}

// WriteText renders every registered metric in sorted-name order, in the
// Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		if err := f.metric.writeText(w, f.name); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving WriteText — the /metrics
// endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeText(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
	return err
}

// CounterVec is a family of counters split by one label; the serving
// layer uses it for requests-by-outcome.
type CounterVec struct {
	label string
	mu    sync.Mutex
	by    map[string]*Counter
}

// With returns the counter for the given label value, creating it on
// first use. The returned counter may be retained and used directly.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.by[value]
	if !ok {
		c = &Counter{}
		v.by[value] = c
	}
	return c
}

// Value returns the count for a label value (0 when the series does not
// exist yet).
func (v *CounterVec) Value(value string) int64 {
	v.mu.Lock()
	c := v.by[value]
	v.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

func (v *CounterVec) writeText(w io.Writer, name string) error {
	v.mu.Lock()
	vals := make([]string, 0, len(v.by))
	for val := range v.by {
		vals = append(vals, val)
	}
	sort.Strings(vals)
	counters := make([]*Counter, len(vals))
	for i, val := range vals {
		counters[i] = v.by[val]
	}
	v.mu.Unlock()
	for i, val := range vals {
		if _, err := fmt.Fprintf(w, "%s{%s=%q} %d\n", name, v.label, val, counters[i].Value()); err != nil {
			return err
		}
	}
	return nil
}

// Gauge is an instantaneous integer level (queue depth, workers busy).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) writeText(w io.Writer, name string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", name, g.Value())
	return err
}

// Histogram counts observations into fixed buckets by upper bound, plus
// a running sum — enough to recover rates and approximate quantiles
// server-side without per-observation allocation.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last bucket is +Inf
	count  atomic.Int64
	sum    atomicFloat
}

// DefLatencyBuckets are the default request/plan latency bounds in
// seconds: roughly logarithmic from 0.5 ms to 10 s, matching the
// serving targets (p99 < 250 ms sits well inside the resolved range).
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// FastLatencyBuckets resolve sub-millisecond operations: roughly
// logarithmic from 10 µs to 1 s. Plan *patching* (internal/delta)
// completes in tens of microseconds to single-digit milliseconds —
// under DefLatencyBuckets every observation would land in the first
// bucket and the histogram's p50/p99 would be indistinguishable. The
// delta and session metrics use these bounds; full-plan latencies stay
// on DefLatencyBuckets.
var FastLatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1,
}

// NewHistogram builds an unregistered histogram with the given upper
// bounds (sorted ascending; nil means DefLatencyBuckets). Most callers
// want Registry.Histogram instead.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	bounds = append([]float64(nil), bounds...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (≈14); linear scan beats binary search at this
	// size and keeps the fast path branch-predictable.
	i := len(h.bounds)
	for b, ub := range h.bounds {
		if v <= ub {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) writeText(w io.Writer, name string) error {
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(ub), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// atomicFloat accumulates a float64 with a CAS loop over its bit
// pattern; contention is low (one add per observation).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

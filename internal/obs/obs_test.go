package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", name, got, want, tol)
	}
}

func TestRegistryText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_last", "sorted last").Add(3)
	reg.Gauge("a_first", "sorted first").Set(-2)
	v := reg.CounterVec("reqs_total", "outcome", "by outcome")
	v.With("ok").Add(5)
	v.With("shed").Inc()
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP a_first sorted first
# TYPE a_first gauge
a_first -2
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 2
lat_seconds_bucket{le="+Inf"} 3
lat_seconds_sum 3.55
lat_seconds_count 3
# HELP reqs_total by outcome
# TYPE reqs_total counter
reqs_total{outcome="ok"} 5
reqs_total{outcome="shed"} 1
# HELP z_last sorted last
# TYPE z_last counter
z_last 3
`
	if got != want {
		t.Errorf("WriteText output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryIdempotentAndTypeSafe(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("c", "")
	c2 := reg.Counter("c", "")
	if c1 != c2 {
		t.Error("same-name Counter registration must return the same object")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as a gauge must panic")
		}
	}()
	reg.Gauge("c", "")
}

func TestMetricsConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", "")
	g := reg.Gauge("g", "")
	h := reg.Histogram("h", "", []float64{1, 2, 4})
	v := reg.CounterVec("v", "k", "")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(1.5)
				v.With("a").Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	approx(t, "histogram sum", h.Sum(), 1.5*workers*per, 1e-6)
	if got := v.Value("a"); got != workers*per {
		t.Errorf("vec counter = %d, want %d", got, workers*per)
	}
}

func TestPercentiles(t *testing.T) {
	if got := Percentiles(nil, 0.5); got != nil {
		t.Errorf("Percentiles(nil) = %v, want nil", got)
	}
	// 0..100 → quantiles are exact order statistics.
	samples := make([]float64, 101)
	for i := range samples {
		samples[100-i] = float64(i)
	}
	ps := Percentiles(samples, 0, 0.5, 0.95, 0.99, 1)
	for i, want := range []float64{0, 50, 95, 99, 100} {
		approx(t, "quantile", ps[i], want, 1e-12)
	}
	// Interpolation between two samples.
	ps = Percentiles([]float64{10, 20}, 0.25)
	approx(t, "interpolated quantile", ps[0], 12.5, 1e-12)
}

// TestFastLatencyBucketsResolveMicroseconds pins the reason the fast
// bucket set exists: a spread of patch-scale latencies (30 µs – 4 ms)
// that DefLatencyBuckets would collapse into its first two buckets must
// land in distinct FastLatencyBuckets, so the exposition can actually
// distinguish a 50 µs patch from a 2 ms one.
func TestFastLatencyBucketsResolveMicroseconds(t *testing.T) {
	for i := 1; i < len(FastLatencyBuckets); i++ {
		if FastLatencyBuckets[i] <= FastLatencyBuckets[i-1] {
			t.Fatalf("FastLatencyBuckets not ascending at %d: %g <= %g",
				i, FastLatencyBuckets[i], FastLatencyBuckets[i-1])
		}
	}
	obs := []float64{0.00003, 0.00008, 0.0004, 0.004}

	slow := NewHistogram(nil) // DefLatencyBuckets
	fast := NewHistogram(FastLatencyBuckets)
	for _, v := range obs {
		slow.Observe(v)
		fast.Observe(v)
	}
	distinct := func(h *Histogram, bounds []float64) int {
		// Count non-empty buckets via the text exposition's cumulative
		// counts: a bucket is non-empty when the cumulative count grows.
		var buf bytes.Buffer
		if err := h.writeText(&buf, "x"); err != nil {
			t.Fatal(err)
		}
		nonEmpty, last := 0, int64(0)
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "x_bucket") {
				continue
			}
			var cum int64
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &cum); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if cum > last {
				nonEmpty++
			}
			last = cum
		}
		return nonEmpty
	}
	if got := distinct(slow, DefLatencyBuckets); got >= len(obs) {
		t.Fatalf("DefLatencyBuckets resolved all %d patch latencies (%d buckets) — fast buckets would be redundant", len(obs), got)
	}
	if got := distinct(fast, FastLatencyBuckets); got != len(obs) {
		t.Fatalf("FastLatencyBuckets resolved %d of %d patch latencies into distinct buckets", got, len(obs))
	}
}

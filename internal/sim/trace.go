package sim

import (
	"fmt"
	"math"

	"repro/internal/rooted"
)

// TracePoint is one epoch's health snapshot.
type TracePoint struct {
	Time float64
	// MinResidualFrac is the lowest residual-energy fraction across
	// live sensors (the network's safety margin at this instant).
	MinResidualFrac float64
	// MeanResidualFrac is the mean residual fraction.
	MeanResidualFrac float64
	// Charged is the number of sensors charged at this epoch.
	Charged int
	// RoundCost is the travel cost dispatched at this epoch.
	RoundCost float64
}

// Tracer wraps a Policy and records a per-epoch health time series
// while delegating every decision to the wrapped policy. Use it to plot
// network safety margins over a run:
//
//	tr := sim.NewTracer(policy)
//	res, err := sim.Run(net, model, tr, cfg)
//	series := tr.Trace()
type Tracer struct {
	inner Policy
	trace []TracePoint
}

// NewTracer wraps policy.
func NewTracer(policy Policy) *Tracer { return &Tracer{inner: policy} }

// Name implements Policy.
func (tr *Tracer) Name() string { return tr.inner.Name() + "+trace" }

// Init implements Policy.
func (tr *Tracer) Init(env *Env) error {
	tr.trace = tr.trace[:0]
	return tr.inner.Init(env)
}

// Decide implements Policy.
func (tr *Tracer) Decide(env *Env, t float64) ([]rooted.Tour, error) {
	tours, err := tr.inner.Decide(env, t)
	if err != nil {
		return nil, err
	}
	pt := TracePoint{Time: t, MinResidualFrac: math.Inf(1)}
	var sum float64
	for i, sn := range env.Net.Sensors {
		frac := env.Residual(i) / sn.Capacity
		sum += frac
		pt.MinResidualFrac = math.Min(pt.MinResidualFrac, frac)
	}
	pt.MeanResidualFrac = sum / float64(env.Net.N())
	for _, tour := range tours {
		pt.Charged += len(tour.Stops)
		pt.RoundCost += tour.Cost
	}
	tr.trace = append(tr.trace, pt)
	return tours, nil
}

// Trace returns the recorded time series.
func (tr *Tracer) Trace() []TracePoint { return tr.trace }

// MinSafetyMargin returns the lowest MinResidualFrac seen, or an error
// if the trace is empty. A run that never approached zero has healthy
// margins; a value of 0 means some sensor was down to its last joule.
func (tr *Tracer) MinSafetyMargin() (float64, error) {
	if len(tr.trace) == 0 {
		return 0, fmt.Errorf("sim: empty trace")
	}
	m := math.Inf(1)
	for _, p := range tr.trace {
		m = math.Min(m, p.MinResidualFrac)
	}
	return m, nil
}

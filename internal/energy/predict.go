package energy

import "fmt"

// EWMA is the paper's per-sensor consumption-rate predictor:
//
//	ρ̂_i(t+1) = γ·ρ_i(t) + (1−γ)·ρ̂_i(t)
//
// with smoothing factor γ ∈ (0, 1]. γ = 1 degenerates to "predict the
// last observed rate", which is exact whenever rates are piecewise
// constant per slot and observations happen at slot boundaries.
type EWMA struct {
	Gamma float64
	pred  []float64
	init  []bool
}

// NewEWMA returns a predictor for n sensors with smoothing factor gamma.
func NewEWMA(n int, gamma float64) (*EWMA, error) {
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("energy: EWMA gamma must be in (0,1], got %g", gamma)
	}
	return &EWMA{Gamma: gamma, pred: make([]float64, n), init: make([]bool, n)}, nil
}

// Observe folds the observed rate of sensor i into its prediction and
// returns the updated prediction. The first observation seeds the
// predictor directly (there is no prior ρ̂ to blend with).
func (e *EWMA) Observe(i int, rate float64) float64 {
	if !e.init[i] {
		e.pred[i] = rate
		e.init[i] = true
		return rate
	}
	e.pred[i] = e.Gamma*rate + (1-e.Gamma)*e.pred[i]
	return e.pred[i]
}

// Predict returns the current prediction for sensor i. It panics if the
// sensor has never been observed, which is a sequencing bug in the
// caller.
func (e *EWMA) Predict(i int) float64 {
	if !e.init[i] {
		panic(fmt.Sprintf("energy: Predict(%d) before any observation", i))
	}
	return e.pred[i]
}

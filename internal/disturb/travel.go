package disturb

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// TravelNoise perturbs every tour leg's travel time by an independent
// lognormal multiplicative factor exp(σ·Z). Each leg's factor is a pure
// function of the seed and the (epoch, tour, leg) labels, so replays are
// bit-identical in any query order.
type TravelNoise struct {
	Identity
	src *rng.Source
	// Sigma is the lognormal σ.
	Sigma float64
}

// NewTravelNoise returns lognormal travel noise with the given σ > 0.
func NewTravelNoise(src *rng.Source, sigma float64) *TravelNoise {
	validatePositive("TravelNoise sigma", sigma)
	return &TravelNoise{src: src.Split(kindTravel), Sigma: sigma}
}

// Name implements Model.
func (n *TravelNoise) Name() string { return fmt.Sprintf("travel-lognormal(%g)", n.Sigma) }

// TravelFactor implements Model: an independent positive factor per
// (epoch, tour, leg).
func (n *TravelNoise) TravelFactor(epoch, tour, leg int) float64 {
	leaf := n.src.Split(uint64(epoch), uint64(tour), uint64(leg))
	return math.Exp(n.Sigma * leaf.NormFloat64())
}

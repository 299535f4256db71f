package wsn

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rng"
)

// GenConfig describes a random network deployment, defaulting to the
// paper's environment: a 1,000m x 1,000m field, the base station at its
// centre, q = 5 depots with depot 0 co-located with the base station and
// the rest uniform random, unit battery capacities (so rate = 1/cycle),
// and cycles drawn from the configured distribution.
type GenConfig struct {
	N        int       // number of sensors (required, > 0)
	Q        int       // number of depots/chargers (required, > 0)
	Field    geom.Rect // zero value means 1000 x 1000
	Capacity float64   // battery capacity B_i; 0 means 1
	Dist     CycleDist // required
	// DepotPlacement selects how depots are placed; the zero value is
	// DepotBaseFirst (the paper's setup).
	DepotPlacement DepotPlacement
}

// DepotPlacement selects a depot siting strategy.
type DepotPlacement int

const (
	// DepotBaseFirst places depot 0 at the base station and the rest
	// uniformly at random (the paper's setup).
	DepotBaseFirst DepotPlacement = iota
	// DepotUniform places all depots uniformly at random.
	DepotUniform
	// DepotGrid places depots on a regular sqrt(q) x sqrt(q)-ish grid;
	// used by the depot-placement ablation.
	DepotGrid
)

func (c GenConfig) withDefaults() (GenConfig, error) {
	if c.N <= 0 {
		return c, fmt.Errorf("wsn: GenConfig.N must be positive, got %d", c.N)
	}
	if c.Q <= 0 {
		return c, fmt.Errorf("wsn: GenConfig.Q must be positive, got %d", c.Q)
	}
	if c.Dist == nil {
		return c, fmt.Errorf("wsn: GenConfig.Dist is required")
	}
	if c.Field.Width() == 0 && c.Field.Height() == 0 {
		c.Field = geom.Square(1000)
	}
	if c.Capacity == 0 {
		c.Capacity = 1
	}
	if c.Capacity < 0 {
		return c, fmt.Errorf("wsn: GenConfig.Capacity must be positive, got %g", c.Capacity)
	}
	return c, nil
}

// Generate deploys a random network according to cfg using the given
// random stream. Identical (cfg, stream seed) pairs yield identical
// networks.
func Generate(r *rng.Source, cfg GenConfig) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	nw := &Network{Field: cfg.Field, Base: cfg.Field.Center()}
	// Exact-size preallocation: append-doubling a million-sensor slice
	// would churn ~4x its final footprint through the GC and spike the
	// heap high-water mark before planning even starts.
	nw.Sensors = make([]Sensor, 0, cfg.N)
	nw.Depots = make([]geom.Point, 0, cfg.Q)
	uniformPoint := func() geom.Point {
		return geom.Pt(
			r.Uniform(cfg.Field.Min.X, cfg.Field.Max.X),
			r.Uniform(cfg.Field.Min.Y, cfg.Field.Max.Y),
		)
	}
	for i := 0; i < cfg.N; i++ {
		pos := uniformPoint()
		nw.Sensors = append(nw.Sensors, Sensor{
			ID:       i,
			Pos:      pos,
			Capacity: cfg.Capacity,
			Cycle:    cfg.Dist.Sample(r, pos, nw.Base, cfg.Field),
		})
	}
	switch cfg.DepotPlacement {
	case DepotBaseFirst:
		nw.Depots = append(nw.Depots, nw.Base)
		for l := 1; l < cfg.Q; l++ {
			nw.Depots = append(nw.Depots, uniformPoint())
		}
	case DepotUniform:
		for l := 0; l < cfg.Q; l++ {
			nw.Depots = append(nw.Depots, uniformPoint())
		}
	case DepotGrid:
		nw.Depots = gridDepots(cfg.Field, cfg.Q)
	default:
		return nil, fmt.Errorf("wsn: unknown depot placement %d", cfg.DepotPlacement)
	}
	if err := nw.Validate(); err != nil {
		return nil, err
	}
	return nw, nil
}

// gridDepots places q depots on the most-square grid with at least q
// cells, filling row-major from cell centres and dropping the excess.
func gridDepots(field geom.Rect, q int) []geom.Point {
	cols := 1
	for cols*cols < q {
		cols++
	}
	rows := (q + cols - 1) / cols
	out := make([]geom.Point, 0, q)
	for rIdx := 0; rIdx < rows && len(out) < q; rIdx++ {
		for cIdx := 0; cIdx < cols && len(out) < q; cIdx++ {
			out = append(out, geom.Pt(
				field.Min.X+field.Width()*(float64(cIdx)+0.5)/float64(cols),
				field.Min.Y+field.Height()*(float64(rIdx)+0.5)/float64(rows),
			))
		}
	}
	return out
}

package wsn

import (
	"fmt"
	"math"
	"sort"
)

// RoutingModel derives sensor energy-consumption rates from an explicit
// data-collection substrate instead of assuming them: sensors form a
// unit-disk communication graph with radius CommRange, every sensor
// routes one unit of sensing traffic to the base station along a
// minimum-hop shortest-path tree (distance tie-break), and a sensor's
// consumption rate is proportional to the traffic it originates plus the
// traffic it relays for its tree descendants.
//
// This is the physical process the paper's linear distribution abstracts
// — sensors near the base station relay the most and therefore have the
// shortest charging cycles — and it lets the experiments check that the
// algorithms behave the same on organically derived cycles as on the
// analytic distribution.
type RoutingModel struct {
	// CommRange is the radio range in metres. Sensors farther than
	// CommRange from every neighbour and the base are unreachable.
	CommRange float64
	// Aggregation in [0,1] scales relayed traffic: 1 means perfect
	// aggregation (relays forward a constant stream regardless of
	// descendants), 0 means none. Matches the paper's remark that a
	// smaller τ_max/τ_min ratio models higher aggregation.
	Aggregation float64
}

// RoutingResult reports the derived routing structure and load.
type RoutingResult struct {
	// ParentOf[i] is sensor i's next hop towards the base: another
	// sensor ID, RouteToBase if it transmits directly to the base
	// station, or RouteUnreachable.
	ParentOf []int
	// Hops[i] is the hop count from sensor i to the base.
	Hops []int
	// Load[i] is the traffic units sensor i handles per time unit.
	Load []float64
	// Rate[i] is the resulting energy consumption rate.
	Rate []float64
}

// Routing parent sentinels.
const (
	RouteToBase       = -1
	RouteUnreachable  = -2
	defaultUnitWeight = 1.0
)

// DeriveRates computes the routing tree and per-sensor rates for nw. It
// returns an error if any sensor cannot reach the base station.
func (m RoutingModel) DeriveRates(nw *Network) (*RoutingResult, error) {
	if m.CommRange <= 0 {
		return nil, fmt.Errorf("wsn: RoutingModel.CommRange must be positive, got %g", m.CommRange)
	}
	if m.Aggregation < 0 || m.Aggregation > 1 {
		return nil, fmt.Errorf("wsn: RoutingModel.Aggregation must be in [0,1], got %g", m.Aggregation)
	}
	n := nw.N()
	res := &RoutingResult{
		ParentOf: make([]int, n),
		Hops:     make([]int, n),
		Load:     make([]float64, n),
		Rate:     make([]float64, n),
	}
	for i := range res.ParentOf {
		res.ParentOf[i] = RouteUnreachable
		res.Hops[i] = -1
	}

	// Multi-source BFS from the base over the unit-disk graph, breaking
	// hop ties by link distance so trees are deterministic.
	type cand struct {
		id     int
		parent int
		dist   float64
	}
	frontier := make([]cand, 0, n)
	for i, s := range nw.Sensors {
		if d := s.Pos.Dist(nw.Base); d <= m.CommRange {
			frontier = append(frontier, cand{id: i, parent: RouteToBase, dist: d})
		}
	}
	hop := 0
	for len(frontier) > 0 {
		sort.Slice(frontier, func(a, b int) bool {
			if frontier[a].id != frontier[b].id {
				return frontier[a].id < frontier[b].id
			}
			return frontier[a].dist < frontier[b].dist
		})
		claimed := make([]cand, 0, len(frontier))
		for _, c := range frontier {
			if res.Hops[c.id] == -1 {
				res.Hops[c.id] = hop
				res.ParentOf[c.id] = c.parent
				claimed = append(claimed, c)
			} else if res.Hops[c.id] == hop && c.dist < distToParent(nw, res, c.id) {
				res.ParentOf[c.id] = c.parent // same hop count, shorter link
			}
		}
		frontier = frontier[:0]
		for _, c := range claimed {
			for j, t := range nw.Sensors {
				if res.Hops[j] == -1 && t.Pos.Dist(nw.Sensors[c.id].Pos) <= m.CommRange {
					frontier = append(frontier, cand{id: j, parent: c.id, dist: t.Pos.Dist(nw.Sensors[c.id].Pos)})
				}
			}
		}
		hop++
	}
	for i := range res.ParentOf {
		if res.ParentOf[i] == RouteUnreachable {
			return nil, fmt.Errorf("wsn: sensor %d at %v cannot reach the base station with range %g",
				i, nw.Sensors[i].Pos, m.CommRange)
		}
	}

	// Accumulate subtree traffic bottom-up (deepest first).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res.Hops[order[a]] > res.Hops[order[b]] })
	relayed := make([]float64, n)
	for _, i := range order {
		res.Load[i] = defaultUnitWeight + relayed[i]
		if p := res.ParentOf[i]; p >= 0 {
			relayed[p] += res.Load[i] * (1 - m.Aggregation)
		}
	}
	// Originating a unit costs one transmission; relaying one costs a
	// reception plus a transmission.
	for i := range res.Rate {
		res.Rate[i] = defaultUnitWeight + 2*relayed[i]
	}
	return res, nil
}

func distToParent(nw *Network, res *RoutingResult, id int) float64 {
	p := res.ParentOf[id]
	if p == RouteToBase {
		return nw.Sensors[id].Pos.Dist(nw.Base)
	}
	if p < 0 {
		return math.Inf(1)
	}
	return nw.Sensors[id].Pos.Dist(nw.Sensors[p].Pos)
}

// ApplyRates rewrites the network's charging cycles from the derived
// rates, affinely rescaling cycles B_i/rate_i into [tauMin, tauMax] so the
// resulting instance is comparable with the analytic distributions.
func (m RoutingModel) ApplyRates(nw *Network, res *RoutingResult, tauMin, tauMax float64) error {
	if tauMin <= 0 || tauMax < tauMin {
		return fmt.Errorf("wsn: invalid cycle range [%g, %g]", tauMin, tauMax)
	}
	n := nw.N()
	if len(res.Rate) != n {
		return fmt.Errorf("wsn: rates for %d sensors, network has %d", len(res.Rate), n)
	}
	raw := make([]float64, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range raw {
		raw[i] = nw.Sensors[i].Capacity / res.Rate[i]
		lo = math.Min(lo, raw[i])
		hi = math.Max(hi, raw[i])
	}
	for i := range raw {
		if hi == lo { //lint:allow floateq degenerate-range guard, exact by design
			nw.Sensors[i].Cycle = tauMin
			continue
		}
		nw.Sensors[i].Cycle = tauMin + (tauMax-tauMin)*(raw[i]-lo)/(hi-lo)
	}
	return nil
}

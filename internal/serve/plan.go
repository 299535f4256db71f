package serve

import (
	"encoding/json"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metric"
	"repro/internal/rooted"
)

// PlanTour is one charger's closed tour in a response: the 0-based
// depot number, the sensor IDs visited in order, and the tour length.
type PlanTour struct {
	Depot int     `json:"depot"`
	Stops []int   `json:"stops"`
	Cost  float64 `json:"cost"`
}

// PlanRound is one charging scheduling: the tours dispatched at Time.
// Tours with no stops are omitted.
type PlanRound struct {
	Time  float64    `json:"time"`
	Tours []PlanTour `json:"tours"`
}

// PlanResponse is the body of a successful POST /plan: the schedule and
// the structural quantities of the paper's analysis. It contains no
// wall-clock fields, so the same request always encodes to the same
// bytes — the property the plan cache and the serving determinism test
// are built on (timings are exposed through /metrics instead).
type PlanResponse struct {
	// Algorithm echoes the planned algorithm label.
	Algorithm string `json:"algorithm"`
	// N and Q echo the topology size.
	N int `json:"n"`
	Q int `json:"q"`
	// T echoes the monitoring period (0 for single-round algorithms).
	T float64 `json:"t,omitempty"`
	// Cost is the total distance travelled by all chargers.
	Cost float64 `json:"cost"`
	// LowerBound is the certified lower bound on the optimal cost.
	LowerBound float64 `json:"lower_bound,omitempty"`
	// RatioBound is the proven approximation-ratio bound 2(K+2)
	// (MinTotalDistance family only).
	RatioBound float64 `json:"ratio_bound,omitempty"`
	// K is the number of charging-cycle classes minus one
	// (MinTotalDistance family only).
	K int `json:"k"`
	// Dispatches counts rounds with at least one charged sensor.
	Dispatches int `json:"dispatches"`
	// Rounds is the schedule (one round at time 0 for the single-round
	// q-rooted algorithms).
	Rounds []PlanRound `json:"rounds"`
}

// Encode marshals the response in the canonical serving encoding — the
// exact bytes chargerd returns and the plan cache stores.
func (p *PlanResponse) Encode() ([]byte, error) {
	b, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// planStats carries the planner's self-measured phase timings out of a
// planning call, for the worker's refine histogram; they never enter
// the response body.
type planStats struct {
	refineNs int64
}

// planInto executes the request's algorithm on its topology, reusing
// the per-worker scratch arena ws (nil allocates privately).
func planInto(req *PlanRequest, ws *experiment.Scratch) (*PlanResponse, planStats, error) {
	var st planStats
	net := req.Network()
	if net == nil {
		return nil, st, fmt.Errorf("serve: request was not parsed (no topology)")
	}
	spec, ok := algoSpecs[req.Algorithm]
	if !ok {
		return nil, st, badRequest("unknown algorithm %q", req.Algorithm)
	}
	pr := experiment.PrepareNetInto(net, ws)
	resp := &PlanResponse{Algorithm: req.Algorithm, N: net.N(), Q: net.Q()}

	// Above the dense threshold the plan runs on the grid path; the q
	// tours are then built concurrently — deterministically, the merged
	// solution is byte-identical to serial (rooted.Options.Workers) — so
	// one large request uses the machine instead of one core.
	workers := 0
	if _, isGrid := metric.AsGrid(pr.Space); isGrid {
		workers = runtime.GOMAXPROCS(0)
	}

	if !spec.schedule {
		opt := rooted.Options{Refine: req.Algorithm == experiment.AlgoQRootedRefined, Workers: workers}
		pr.TourOptions(&opt, &st.refineNs)
		sol := rooted.Tours(pr.Space, net.DepotIndices(), net.SensorIndices(), opt)
		resp.Cost = sol.Cost()
		resp.LowerBound = sol.ForestWeight
		resp.Dispatches = 1
		resp.Rounds = []PlanRound{{Time: 0, Tours: jsonTours(net.N(), sol.Tours)}}
		return resp, st, nil
	}

	opt := core.FixedOptions{Base: req.Base, Space: pr.Space}
	opt.Rooted.Workers = workers
	switch req.Algorithm {
	case experiment.AlgoMTDRefined:
		opt.Rooted.Refine = true
	case experiment.AlgoMTDVoronoi:
		opt.Rooted.Method = rooted.MethodClusterFirst
	case experiment.AlgoMTDChristo:
		opt.Rooted.Method = rooted.MethodChristofides
	}
	pr.TourOptions(&opt.Rooted, &st.refineNs)
	plan, err := core.PlanFixed(net, req.T, opt)
	if err != nil {
		return nil, st, err
	}
	if err := plan.Schedule.Verify(net.Cycles(), 1e-6); err != nil {
		return nil, st, fmt.Errorf("serve: planner produced an infeasible schedule: %w", err)
	}
	resp.T = req.T
	resp.Cost = plan.Cost()
	resp.LowerBound = plan.LowerBound
	resp.RatioBound = plan.RatioBound
	resp.K = plan.K
	resp.Dispatches = plan.Schedule.Dispatches()
	resp.Rounds = make([]PlanRound, 0, len(plan.Schedule.Rounds))
	for _, r := range plan.Schedule.Rounds {
		resp.Rounds = append(resp.Rounds, PlanRound{Time: r.Time, Tours: jsonTours(net.N(), r.Tours)})
	}
	return resp, st, nil
}

// jsonTours converts rooted tours to response tours, translating the
// metric-space depot index (n+l) to the 0-based depot number and
// dropping empty tours.
func jsonTours(n int, tours []rooted.Tour) []PlanTour {
	out := make([]PlanTour, 0, len(tours))
	for _, t := range tours {
		if len(t.Stops) == 0 {
			continue
		}
		out = append(out, PlanTour{Depot: t.Depot - n, Stops: t.Stops, Cost: t.Cost})
	}
	return out
}

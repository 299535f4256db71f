package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/wsn"
)

// churnConfig parameterizes the -churn workload: one stateful session
// under steady topology churn, with occasional cold full replans of the
// same evolving topology through POST /plan for comparison.
type churnConfig struct {
	url, algo    string
	n, q, batch  int
	period       float64
	seed         uint64
	dur          time.Duration
	rate         float64 // Poisson batch arrivals per second; 0 = closed loop
	coldFrac     float64 // fraction of batches followed by a cold /plan replan
	strict       bool
	maxDeltaP99  float64 // ms; 0 = off
	minSpeedup   float64 // replan p99 / delta p99 floor; 0 = off
	maxCostRatio float64 // patched/replanned cost ceiling; 0 = off
}

// churnSummary is the human-facing half of the -churn JSON report.
type churnSummary struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Batches         int     `json:"batches"`
	Ops             int     `json:"ops"`
	FinalN          int     `json:"final_n"`
	Version         int64   `json:"version"`
	SessionReplans  float64 `json:"session_replans"`
	DeltaP50Ms      float64 `json:"delta_p50_ms"`
	DeltaP95Ms      float64 `json:"delta_p95_ms"`
	DeltaP99Ms      float64 `json:"delta_p99_ms"`
	ColdPlans       int     `json:"cold_plans"`
	ReplanP50Ms     float64 `json:"replan_p50_ms"`
	ReplanP99Ms     float64 `json:"replan_p99_ms"`
	DeltaSpeedupP99 float64 `json:"delta_speedup_p99"`
	CostPatched     float64 `json:"cost_patched"`
	CostReplan      float64 `json:"cost_replan"`
	CostRatio       float64 `json:"cost_ratio"`
	GapFeasible     bool    `json:"gap_feasible"`
	Errors          int64   `json:"errors"`
}

// churnOutput is the full -churn report.
type churnOutput struct {
	benchfmt.File
	Summary churnSummary `json:"summary"`
}

// slotRec mirrors one session slot client-side, so the load generator
// can build valid batches, reconstruct the live topology for cold
// replans, and verify gap feasibility of the fetched plan on its own.
type slotRec struct {
	x, y, capacity, cycle float64
	alive                 bool
}

// runChurn drives the streaming-session workload: register one
// topology as a session, stream mixed delta batches (joins, leaves,
// rate updates) for the configured duration — open-loop Poisson
// arrivals under -rate — and interleave cold POST /plan requests on
// the reconstructed live topology as the full-replan baseline. At the
// end it fetches the session's patched plan, verifies gap feasibility
// client-side, and reports patched-vs-replanned cost plus the latency
// percentiles of both paths.
func runChurn(cfg churnConfig) error {
	client := &http.Client{Timeout: 30 * time.Minute}
	net, err := wsn.Generate(rng.New(cfg.seed), wsn.GenConfig{
		N: cfg.n, Q: cfg.q, Dist: wsn.LinearDist{TauMin: 2, TauMax: 40, Sigma: 2},
	})
	if err != nil {
		return err
	}

	body, err := json.Marshal(serve.NewRequest(net, cfg.algo, cfg.period))
	if err != nil {
		return err
	}
	resp, err := client.Post(cfg.url+"/session", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("create session: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("create session: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create session: status %d: %s", resp.StatusCode, raw)
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(raw, &info); err != nil {
		return fmt.Errorf("create session: %v", err)
	}
	fmt.Fprintf(os.Stderr, "loadgen: session %s (n=%d k=%d tau1=%.3g cost=%.1f)\n",
		info.ID, info.N, info.K, info.Tau1, info.Cost)

	// Client-side mirror of the session's slot table.
	slots := make([]slotRec, 0, cfg.n*2)
	for _, s := range net.Sensors {
		slots = append(slots, slotRec{x: s.Pos.X, y: s.Pos.Y, capacity: s.Capacity, cycle: s.Cycle, alive: true})
	}
	nAlive := cfg.n

	opRNG := rng.New(cfg.seed + 7777)
	arrRNG := rng.New(cfg.seed + 13)
	deltaURL := cfg.url + "/session/" + info.ID + "/delta"
	coldEvery := 0
	if cfg.coldFrac > 0 {
		coldEvery = int(1/cfg.coldFrac + 0.5)
		if coldEvery < 1 {
			coldEvery = 1
		}
	}

	var deltaLat, replanLat []float64
	var errs int64
	var coldPlans, batches, opsTotal int
	var version int64
	freshCost := info.Cost

	coldReplan := func() error {
		req, err := json.Marshal(reconstructRequest(net, slots, cfg.algo, cfg.period))
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := client.Post(cfg.url+"/plan", "application/json", bytes.NewReader(req))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cold replan: status %d: %.200s", resp.StatusCode, raw)
		}
		replanLat = append(replanLat, time.Since(t0).Seconds())
		var pr serve.PlanResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			return err
		}
		freshCost = pr.Cost
		coldPlans++
		return nil
	}

	deadline := time.Now().Add(cfg.dur)
	next := time.Now()
	t0 := time.Now()
	for time.Now().Before(deadline) {
		// Open-loop pacing: the batch is due at its scheduled Poisson
		// arrival, and latency is measured from that schedule, so a slow
		// server accrues backlog into the numbers instead of silently
		// slowing the generator (coordinated omission).
		if cfg.rate > 0 {
			next = next.Add(expGap(arrRNG, cfg.rate))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		} else {
			next = time.Now()
		}
		ops, apply := churnBatch(opRNG, slots, nAlive, cfg.batch)
		body, err := json.Marshal(serve.DeltaRequest{Ops: ops})
		if err != nil {
			return err
		}
		resp, err := client.Post(deltaURL, "application/json", bytes.NewReader(body))
		if err != nil {
			errs++
			continue
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(next).Seconds()
		switch {
		case rerr != nil || resp.StatusCode != http.StatusOK:
			// Shed batches (503) are dropped, not applied; anything else
			// is an error. Either way the mirror stays unchanged — the
			// server rejected the batch atomically.
			if resp.StatusCode != http.StatusServiceUnavailable {
				errs++
				fmt.Fprintf(os.Stderr, "loadgen: delta batch %d: status %d: %.200s\n", batches, resp.StatusCode, raw)
			}
		default:
			deltaLat = append(deltaLat, lat)
			var dres serve.DeltaResult
			if err := json.Unmarshal(raw, &dres); err != nil {
				errs++
				break
			}
			version = dres.Version
			slots, nAlive = apply(slots, nAlive)
			batches++
			opsTotal += len(ops)
			if coldEvery > 0 && batches%coldEvery == 0 {
				if err := coldReplan(); err != nil {
					errs++
					fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				}
			}
		}
	}
	elapsed := time.Since(t0).Seconds()

	// Final cold replan: the cost baseline for the final topology.
	if err := coldReplan(); err != nil {
		return err
	}

	// Fetch the patched plan and verify it client-side.
	resp, err = client.Get(cfg.url + "/session/" + info.ID + "/plan")
	if err != nil {
		return fmt.Errorf("session plan: %v", err)
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("session plan: status %d: %v", resp.StatusCode, err)
	}
	var view serve.SessionPlanJSON
	if err := json.Unmarshal(raw, &view); err != nil {
		return fmt.Errorf("session plan: %v", err)
	}
	gapOK := churnGapsFeasible(&view, slots)

	replans, _ := scrapeCounterSum(client, cfg.url+"/metrics", "chargerd_session_replans_total")

	dp := obs.Percentiles(deltaLat, 0.50, 0.95, 0.99)
	rp := obs.Percentiles(replanLat, 0.50, 0.99)
	sum := churnSummary{
		DurationSeconds: elapsed,
		Batches:         batches,
		Ops:             opsTotal,
		FinalN:          view.N,
		Version:         version,
		SessionReplans:  replans,
		DeltaP50Ms:      dp[0] * 1e3,
		DeltaP95Ms:      dp[1] * 1e3,
		DeltaP99Ms:      dp[2] * 1e3,
		ColdPlans:       coldPlans,
		ReplanP50Ms:     rp[0] * 1e3,
		ReplanP99Ms:     rp[1] * 1e3,
		CostPatched:     view.Cost,
		CostReplan:      freshCost,
		GapFeasible:     gapOK,
		Errors:          errs,
	}
	if dp[2] > 0 {
		sum.DeltaSpeedupP99 = rp[1] / dp[2]
	}
	if freshCost > 0 {
		sum.CostRatio = view.Cost / freshCost
	}

	tag := fmt.Sprintf("n=%d/q=%d/batch=%d", cfg.n, cfg.q, cfg.batch)
	out := churnOutput{Summary: sum}
	out.Pkg = "repro/cmd/loadgen"
	out.Results = []benchfmt.Result{
		{Name: "LoadgenDeltaP50/" + tag, Runs: 1, Iterations: batches, NsPerOp: dp[0] * 1e9},
		{Name: "LoadgenDeltaP99/" + tag, Runs: 1, Iterations: batches, NsPerOp: dp[2] * 1e9},
		{Name: "LoadgenReplanP99/" + tag, Runs: 1, Iterations: coldPlans, NsPerOp: rp[1] * 1e9},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}

	if !cfg.strict {
		return nil
	}
	fail := false
	check := func(bad bool, format string, args ...any) {
		if bad {
			fail = true
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: "+format+"\n", args...)
		}
	}
	check(errs > 0, "%d delta/replan request(s) failed", errs)
	check(batches == 0, "no delta batches completed")
	check(!gapOK, "patched session plan violates a charging-gap bound")
	check(cfg.maxDeltaP99 > 0 && sum.DeltaP99Ms > cfg.maxDeltaP99,
		"delta p99 %.2f ms above the %.2f ms ceiling", sum.DeltaP99Ms, cfg.maxDeltaP99)
	check(cfg.minSpeedup > 0 && sum.DeltaSpeedupP99 < cfg.minSpeedup,
		"delta p99 only %.1fx below full-replan p99, floor is %.1fx", sum.DeltaSpeedupP99, cfg.minSpeedup)
	check(cfg.maxCostRatio > 0 && sum.CostRatio > cfg.maxCostRatio,
		"patched cost %.4fx the from-scratch cost, ceiling is %.4fx", sum.CostRatio, cfg.maxCostRatio)
	if fail {
		return fmt.Errorf("strict churn assertions failed")
	}
	return nil
}

// churnBatch builds one mixed batch (about half joins, a quarter
// leaves, a quarter rate updates) against the mirror, returning the ops
// plus an apply function that commits the mirror only once the server
// accepted the batch — mirroring the server's batch atomicity. New
// cycles stay at or above the current live minimum, which by the
// session invariant is at or above the server's τ₁, so batches never go
// structural.
func churnBatch(r *rng.Source, slots []slotRec, nAlive, size int) ([]serve.DeltaOpJSON, func([]slotRec, int) ([]slotRec, int)) {
	minCycle := math.Inf(1)
	for _, s := range slots {
		if s.alive && s.cycle < minCycle {
			minCycle = s.cycle
		}
	}
	pickLive := func() int {
		for {
			id := int(r.Uniform(0, float64(len(slots))))
			if id >= len(slots) {
				id = len(slots) - 1
			}
			if slots[id].alive {
				return id
			}
		}
	}
	type commit struct {
		kind  string
		id    int
		rec   slotRec
		cycle float64
	}
	var ops []serve.DeltaOpJSON
	var commits []commit
	joined := 0
	for i := 0; i < size; i++ {
		roll := r.Uniform(0, 1)
		switch {
		case roll < 0.5 || nAlive+joined-len(commits) < 8:
			rec := slotRec{
				x: r.Uniform(0, 1000), y: r.Uniform(0, 1000),
				cycle: minCycle * r.Uniform(1, 16), alive: true, capacity: 1,
			}
			ops = append(ops, serve.DeltaOpJSON{Op: "join", X: rec.x, Y: rec.y, Cycle: rec.cycle})
			commits = append(commits, commit{kind: "join", rec: rec})
			joined++
		case roll < 0.75:
			id := pickLive()
			ops = append(ops, serve.DeltaOpJSON{Op: "leave", ID: &id})
			commits = append(commits, commit{kind: "leave", id: id})
			slots[id].alive = false // tentatively, so the batch stays self-consistent
		default:
			id := pickLive()
			cycle := minCycle * r.Uniform(1, 16)
			ops = append(ops, serve.DeltaOpJSON{Op: "rate", ID: &id, Cycle: cycle})
			commits = append(commits, commit{kind: "rate", id: id, cycle: cycle})
		}
	}
	// Undo the tentative leave marks; apply() redoes them on success.
	for _, c := range commits {
		if c.kind == "leave" {
			slots[c.id].alive = true
		}
	}
	apply := func(slots []slotRec, nAlive int) ([]slotRec, int) {
		for _, c := range commits {
			switch c.kind {
			case "join":
				slots = append(slots, c.rec)
				nAlive++
			case "leave":
				slots[c.id].alive = false
				nAlive--
			case "rate":
				slots[c.id].cycle = c.cycle
			}
		}
		return slots, nAlive
	}
	return ops, apply
}

// reconstructRequest rebuilds the live topology from the mirror as a
// fresh /plan request: the from-scratch baseline the patched plan is
// compared against. Slot order is preserved, ids are re-packed to the
// canonical 0..n-1.
func reconstructRequest(base *wsn.Network, slots []slotRec, algo string, period float64) *serve.PlanRequest {
	live := &wsn.Network{Field: base.Field, Base: base.Base, Depots: base.Depots}
	for _, s := range slots {
		if !s.alive {
			continue
		}
		live.Sensors = append(live.Sensors, wsn.Sensor{
			ID: len(live.Sensors), Pos: geom.Point{X: s.x, Y: s.y}, Capacity: s.capacity, Cycle: s.cycle,
		})
	}
	return serve.NewRequest(live, algo, period)
}

// churnGapsFeasible verifies the fetched patched plan against the
// mirror, fully client-side: every live slot appears in a consistent
// prefix D_c..D_K of the solutions, and sched.VerifyCadence accepts its
// charging period base^c·τ₁ against its cycle, terminal gap to T
// included (the paper's Lemma 2 bound, base 2 — the only base this
// workload requests). Dead slots must appear nowhere.
func churnGapsFeasible(view *serve.SessionPlanJSON, slots []slotRec) bool {
	if view.Slots != len(slots) {
		return false
	}
	member := make([][]bool, view.K+1)
	for _, sol := range view.Solutions {
		if sol.K < 0 || sol.K > view.K {
			return false
		}
		m := make([]bool, view.Slots)
		for _, t := range sol.Tours {
			for _, s := range t.Stops {
				if s < 0 || s >= view.Slots {
					return false
				}
				m[s] = true
			}
		}
		member[sol.K] = m
	}
	for k := range member {
		if member[k] == nil {
			return false
		}
	}
	for s := range slots {
		if !slots[s].alive {
			for k := range member {
				if member[k][s] {
					return false
				}
			}
			continue
		}
		c := -1
		for k := 0; k <= view.K; k++ {
			if member[k][s] {
				c = k
				break
			}
		}
		if c < 0 {
			return false
		}
		for k := c; k <= view.K; k++ {
			if !member[k][s] {
				return false
			}
		}
		if sched.VerifyCadence(math.Pow(2, float64(c))*view.Tau1, slots[s].cycle, view.T) != nil {
			return false
		}
	}
	return true
}

// scrapeCounterSum sums every sample of a (possibly labelled) counter
// family on a Prometheus-format metrics page.
func scrapeCounterSum(client *http.Client, url, name string) (float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, name+"{") && !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		sum += v
	}
	return sum, nil
}

// expGap draws one exponential inter-arrival gap of a Poisson process
// with the given rate (events per second).
func expGap(r *rng.Source, rate float64) time.Duration {
	u := r.Uniform(0, 1)
	if u <= 0 {
		u = 1e-12
	}
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}

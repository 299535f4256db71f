package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"

	"repro/internal/delta"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/tsp"
	"repro/internal/wsn"
)

// churnBatchOps is the size of one delta batch, the session-churn op.
const churnBatchOps = 8

// churnSessions is how many sessions, each on its own network, a run
// spreads its batches over, round-robin, so that a run's batch and
// reconcile costs average over several networks.
const churnSessions = 3

// slotRec mirrors one session slot client-side.
type slotRec struct {
	x, y, cycle float64
	alive       bool
}

// churnCell is chargerd driven in-process through its HTTP handler: no
// socket, one serve worker, one session shard, and reconciling replans
// run inline (SyncReplan), so a batch's latency includes its reconcile
// and nothing runs in the background.
type churnCell struct {
	tr   *tracer
	cfg  delta.Config
	srv  *serve.Server
	h    http.Handler
	sess []*churnSession
}

// churnSession is one session and the client's view of it.
type churnSession struct {
	net    *wsn.Network
	id     string
	bodies [][]byte     // batch b as the POST body; batch 0 is the warm-up
	ops    [][]delta.Op // batch b as delta ops, for the traced replay
	slots  []slotRec    // the session's slots after every batch
	// direct is the traced pass's replay of the same batches straight
	// into delta.State, timing Apply and Replan without the handler.
	direct *delta.State
}

func setupChurn(seed uint64, ops int, toy bool, tr *tracer) (instance, error) {
	n, q, T := 50000, 8, 100.0
	if toy {
		n, q = 400, 4
	}
	c := &churnCell{
		tr: tr,
		// The session's own planning config (serve's sessionDeltaConfig
		// for MinTotalDistance with one worker).
		cfg: delta.Config{T: T, Workers: 1, MaxRounds: serve.MaxRounds},
		srv: serve.New(serve.Config{Workers: 1, Sessions: serve.SessionConfig{SyncReplan: true}}),
	}
	c.h = serve.NewHandler(c.srv)
	root := seedRoot(seed, "session-churn")
	for k := 0; k < churnSessions; k++ {
		// Session k gets timed ops k+1, k+1+churnSessions, ... and a
		// warm-up batch; the mirror must end where the session does.
		batches := 1 + (ops-k+churnSessions-1)/churnSessions
		s, err := c.newSession(root.Split(uint64(k)), n, q, T, batches)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sess = append(c.sess, s)
		if r := c.send(s, 0); r.failed != "" {
			c.close()
			return nil, fmt.Errorf("warm-up batch: %s", r.failed)
		}
	}
	return c, nil
}

// newSession generates a network, registers it through POST /session
// and draws its batches. The depots sit on a grid: with the paper's
// random depots, where they landed moved a session's batch cost by up
// to a third between seeds.
func (c *churnCell) newSession(root *rng.Source, n, q int, T float64, batches int) (*churnSession, error) {
	c.tr.begin("wsn.Generate")
	net, err := wsn.Generate(root.Split(1), wsn.GenConfig{
		N: n, Q: q, Dist: wsn.LinearDist{TauMin: 2, TauMax: 40, Sigma: 2}, DepotPlacement: wsn.DepotGrid,
	})
	c.tr.end()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.NewRequest(net, experiment.AlgoMTD, T))
	if err != nil {
		return nil, err
	}
	c.tr.begin("serve.handler")
	rec := c.do(http.MethodPost, "/session", body)
	c.tr.end()
	if rec.Code != http.StatusCreated {
		return nil, fmt.Errorf("create session: status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return nil, fmt.Errorf("create session: %v", err)
	}
	s := &churnSession{net: net, id: info.ID}
	for _, sn := range net.Sensors {
		s.slots = append(s.slots, slotRec{x: sn.Pos.X, y: sn.Pos.Y, cycle: sn.Cycle, alive: true})
	}
	nAlive := len(s.slots)
	r := root.Split(2)
	for b := 0; b < batches; b++ {
		var batch []serve.DeltaOpJSON
		batch, nAlive = churnBatch(r, &s.slots, nAlive)
		body, err := json.Marshal(serve.DeltaRequest{Ops: batch})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
		s.ops = append(s.ops, deltaOps(batch))
	}
	if c.tr != nil {
		c.tr.begin("delta.New")
		s.direct, err = delta.New(net, c.cfg, tsp.NewScratch())
		c.tr.end()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// churnBatch draws one batch the way cmd/loadgen's churn mode does —
// each op a join (½), leave (¼) or rate update (¼) — and commits it to
// the mirror. New cycles are at or above the live minimum, which the
// session keeps at or above its base period τ₁, so no batch is
// structural. Leaves and updates pick among the slots alive before the
// batch that no earlier op of the batch removed.
func churnBatch(r *rng.Source, slots *[]slotRec, nAlive int) ([]serve.DeltaOpJSON, int) {
	s := *slots
	minCycle := math.Inf(1)
	for _, sl := range s {
		if sl.alive && sl.cycle < minCycle {
			minCycle = sl.cycle
		}
	}
	pickLive := func() int {
		for {
			id := int(r.Uniform(0, float64(len(s))))
			if id >= len(s) {
				id = len(s) - 1
			}
			if s[id].alive {
				return id
			}
		}
	}
	var ops []serve.DeltaOpJSON
	var joins []slotRec
	for i := 0; i < churnBatchOps; i++ {
		roll := r.Uniform(0, 1)
		switch {
		case roll < 0.5 || nAlive < churnBatchOps:
			rec := slotRec{x: r.Uniform(0, 1000), y: r.Uniform(0, 1000), cycle: minCycle * r.Uniform(1, 16), alive: true}
			ops = append(ops, serve.DeltaOpJSON{Op: "join", X: rec.x, Y: rec.y, Cycle: rec.cycle})
			joins = append(joins, rec)
			nAlive++
		case roll < 0.75:
			id := pickLive()
			ops = append(ops, serve.DeltaOpJSON{Op: "leave", ID: &id})
			s[id].alive = false
			nAlive--
		default:
			id := pickLive()
			cycle := minCycle * r.Uniform(1, 16)
			ops = append(ops, serve.DeltaOpJSON{Op: "rate", ID: &id, Cycle: cycle})
			s[id].cycle = cycle
		}
	}
	*slots = append(s, joins...)
	return ops, nAlive
}

// deltaOps converts a batch to the ops chargerd's delta handler parses
// it into.
func deltaOps(batch []serve.DeltaOpJSON) []delta.Op {
	ops := make([]delta.Op, len(batch))
	for i, o := range batch {
		switch o.Op {
		case "join":
			ops[i] = delta.Op{Kind: delta.OpJoin, X: o.X, Y: o.Y, Cycle: o.Cycle}
		case "leave":
			ops[i] = delta.Op{Kind: delta.OpLeave, ID: *o.ID}
		case "rate":
			ops[i] = delta.Op{Kind: delta.OpRate, ID: *o.ID, Cycle: o.Cycle}
		}
	}
	return ops
}

func (c *churnCell) do(method, path string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body == nil {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	}
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec
}

// op sends timed batch i to its session, round-robin. Set-up already
// sent every session's warm-up batch, so op 0 does nothing.
func (c *churnCell) op(i int) opResult {
	if i == 0 {
		return opResult{}
	}
	return c.send(c.sess[(i-1)%len(c.sess)], (i-1)/len(c.sess)+1)
}

// send posts batch b of session s through the handler and, in the
// traced pass, replays it into the session's direct delta.State.
func (c *churnCell) send(s *churnSession, b int) opResult {
	c.tr.begin("serve.handler")
	rec := c.do(http.MethodPost, "/session/"+s.id+"/delta", s.bodies[b])
	c.tr.end()
	if rec.Code != http.StatusOK {
		return opResult{failed: fmt.Sprintf("batch %d: status %d: %.200s", b, rec.Code, rec.Body.Bytes())}
	}
	var res serve.DeltaResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		return opResult{failed: fmt.Sprintf("batch %d: %v", b, err)}
	}
	r := opResult{
		out:  []float64{res.Cost, res.Drift, b2f(res.NeedReplan), b2f(res.Replanned), float64(res.Version)},
		slow: res.NeedReplan,
	}
	if s.direct == nil {
		return r
	}
	patched := s.direct.PatchedOps()
	c.tr.begin("delta.Apply")
	dres, err := s.direct.Apply(s.ops[b])
	c.tr.end()
	c.tr.note("delta.patched_ops", float64(s.direct.PatchedOps()-patched))
	c.tr.note("delta.ops", float64(len(s.ops[b])))
	if err == nil && dres.NeedReplan {
		c.tr.begin("delta.Replan")
		err = s.direct.Replan()
		c.tr.end()
	}
	switch {
	case err != nil:
		r.failed = fmt.Sprintf("batch %d: direct replay: %v", b, err)
	case dres.Cost != res.Cost || dres.NeedReplan != res.NeedReplan: //lint:allow floateq the replay must match the handler bit for bit
		r.failed = fmt.Sprintf("batch %d: direct replay diverged from the handler", b)
	}
	return r
}

// finish fetches every session's patched plan, checks each live slot's
// charging gaps against the mirror, and prices a fresh plan of the
// final live topology with the session's own planner. cost_ratio is
// the patched over the fresh cost, summed over the sessions.
func (c *churnCell) finish([]float64) (finalResult, error) {
	f := finalResult{out: make([]float64, 6)}
	for k, s := range c.sess {
		rec := c.do(http.MethodGet, "/session/"+s.id+"/plan", nil)
		if rec.Code != http.StatusOK {
			return finalResult{}, fmt.Errorf("session %d plan: status %d", k, rec.Code)
		}
		var view serve.SessionPlanJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			return finalResult{}, fmt.Errorf("session %d plan: %v", k, err)
		}
		live := &wsn.Network{Field: s.net.Field, Base: s.net.Base, Depots: s.net.Depots}
		for _, sl := range s.slots {
			if sl.alive {
				live.Sensors = append(live.Sensors, wsn.Sensor{
					ID: len(live.Sensors), Pos: geom.Point{X: sl.x, Y: sl.y}, Capacity: 1, Cycle: sl.cycle,
				})
			}
		}
		fresh, err := delta.New(live, c.cfg, tsp.NewScratch())
		if err != nil {
			return finalResult{}, fmt.Errorf("session %d fresh plan: %v", k, err)
		}
		for j, v := range []float64{view.Cost, fresh.Cost(), float64(view.Replans), float64(view.PatchedOps),
			float64(view.N), float64(view.Slots)} {
			f.out[j] += v
		}
		if !gapsFeasible(&view, s.slots) && f.failed == "" {
			f.failed = fmt.Sprintf("session %d: patched plan violates a charging-gap bound", k)
		}
	}
	f.costRatio = f.out[0] / f.out[1]
	return f, nil
}

func (c *churnCell) close() { c.srv.Close() }

// gapsFeasible checks the fetched plan against the mirror like
// cmd/loadgen's churnGapsFeasible: every live slot sits in a
// consistent prefix D_c..D_K of the solutions, its charging period
// 2^c·τ₁ fits its cycle, and so does its terminal gap to T; dead slots
// appear nowhere.
func gapsFeasible(view *serve.SessionPlanJSON, slots []slotRec) bool {
	const eps = 1e-9
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
	for s, sl := range slots {
		c := -1
		for k := 0; k <= view.K; k++ {
			if member[k][s] {
				c = k
				break
			}
		}
		if !sl.alive {
			if c >= 0 {
				return false
			}
			continue
		}
		if c < 0 {
			return false
		}
		for k := c; k <= view.K; k++ {
			if !member[k][s] {
				return false
			}
		}
		p := math.Pow(2, float64(c)) * view.Tau1
		if p > sl.cycle*(1+eps) {
			return false
		}
		last := math.Floor((view.T-eps)/p) * p
		if view.T-last > sl.cycle*(1+eps) {
			return false
		}
	}
	return true
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package delta

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/wsn"
)

// TestAsyncReconcileCostConsistency drives a State through the serving
// layer's asynchronous reconcile shape — Snapshot while batches keep
// landing on the live state, PlanSnapshot in the "background", replay
// the logged batches, swap — and then audits the survivor: every
// reported tour, solution and total cost must match a geometric
// recompute from coordinates, and the total must stay in a sane band
// around a from-scratch plan of the same deployment. (Patched plans may
// legitimately come in cheaper: every patch locally refines the tours
// it touches, and that compounds across batches, while the fresh
// baseline only gets the planner's one-shot construction.)
func TestAsyncReconcileCostConsistency(t *testing.T) {
	net, err := wsn.Generate(rng.New(17), wsn.GenConfig{
		N: 800, Q: 4, Dist: wsn.LinearDist{TauMin: 2, TauMax: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{T: 100, MaxDrift: 0.05}
	st, err := New(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	minCycle := func() float64 {
		m := math.Inf(1)
		for id := 0; id < len(st.sensors); id++ {
			if s := st.sensors[id]; st.alive[id] && s.Cycle < m {
				m = s.Cycle
			}
		}
		return m
	}
	mkBatch := func() []Op {
		var ops []Op
		gone := map[int]bool{} // departed within this batch: no further ops on them
		pickLive := func() (int, bool) {
			for tries := 0; tries < 50; tries++ {
				id := int(r.Uniform(0, float64(len(st.sensors))))
				if st.alive[id] && !gone[id] {
					return id, true
				}
			}
			return 0, false
		}
		for i := 0; i < 8; i++ {
			switch int(r.Uniform(0, 3)) {
			case 0:
				ops = append(ops, Op{
					Kind: OpJoin, X: r.Uniform(0, 1000), Y: r.Uniform(0, 1000),
					Cycle: minCycle() * r.Uniform(1, 20),
				})
			case 1:
				if id, ok := pickLive(); ok {
					ops = append(ops, Op{Kind: OpLeave, ID: id})
					gone[id] = true
				}
			default:
				if id, ok := pickLive(); ok {
					ops = append(ops, Op{Kind: OpRate, ID: id, Cycle: minCycle() * r.Uniform(1, 20)})
				}
			}
		}
		return ops
	}

	var pendingSnap *Snapshot
	var ring [][]Op
	swaps := 0
	for batch := 0; batch < 60; batch++ {
		ops := mkBatch()
		res, err := st.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if pendingSnap != nil {
			ring = append(ring, ops)
			// The background replan "finishes" after three live batches.
			if len(ring) >= 3 {
				st2, err := PlanSnapshot(pendingSnap, nil)
				if err != nil {
					t.Fatalf("batch %d plansnapshot: %v", batch, err)
				}
				for _, b := range ring {
					if _, err := st2.Apply(b); err != nil {
						t.Fatalf("batch %d replay: %v", batch, err)
					}
				}
				if got, want := st2.Version(), st.Version(); got != want {
					t.Fatalf("batch %d: replayed version %d, live version %d", batch, got, want)
				}
				st = st2
				pendingSnap, ring = nil, nil
				swaps++
			}
		} else if res.NeedReplan {
			pendingSnap = st.Snapshot()
		}
	}
	if swaps == 0 {
		t.Fatal("no reconcile swaps happened; the test exercised nothing")
	}

	// Audit: reported costs vs geometric recompute of the view.
	v := st.View()
	var total float64
	for _, sol := range v.Solutions {
		var sc float64
		for _, tv := range sol.Tours {
			dp := st.depots[tv.Depot]
			prev := dp
			var c float64
			for _, s := range tv.Stops {
				p := st.sensors[s].Pos
				c += prev.Dist(p)
				prev = p
			}
			c += prev.Dist(dp)
			sc += c
			if math.Abs(c-tv.Cost) > 1e-6*math.Max(1, tv.Cost) {
				t.Errorf("class %d tour cost: reported %g, geometric %g", sol.K, tv.Cost, c)
			}
		}
		if math.Abs(sc-sol.Cost) > 1e-6*math.Max(1, sol.Cost) {
			t.Errorf("class %d solution cost: reported %g, sum of tours %g", sol.K, sol.Cost, sc)
		}
		total += float64(sol.Rounds) * sc
	}
	if math.Abs(total-v.Cost) > 1e-6*math.Max(1, v.Cost) {
		t.Errorf("total cost: reported %g, geometric %g", v.Cost, total)
	}

	// Sanity band against a fresh plan of the same live deployment.
	live := make([]wsn.Sensor, 0, st.N())
	for id := 0; id < len(st.sensors); id++ {
		if s := st.sensors[id]; st.alive[id] {
			live = append(live, s)
		}
	}
	for i := range live {
		live[i].ID = i
	}
	fresh, err := New(&wsn.Network{Field: st.field, Base: st.bs, Sensors: live, Depots: st.depots}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ratio := v.Cost / fresh.Cost()
	t.Logf("swaps=%d patched %.1f fresh %.1f ratio %.4f", swaps, v.Cost, fresh.Cost(), ratio)
	if ratio < 0.75 || ratio > 1.15 {
		t.Errorf("patched/fresh cost ratio %.4f out of [0.75, 1.15]", ratio)
	}
}

package delta

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/wsn"
)

func testNetwork(t testing.TB, n, q int, seed uint64) *wsn.Network {
	t.Helper()
	net, err := wsn.Generate(rng.New(seed), wsn.GenConfig{
		N: n, Q: q, Dist: wsn.LinearDist{TauMin: 2, TauMax: 40},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newState(t testing.TB, net *wsn.Network, cfg Config) *State {
	t.Helper()
	st, err := New(net, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// liveNetwork reconstructs the live deployment as a compact Network —
// the from-scratch reference for fingerprint and replan comparisons.
func liveNetwork(st *State, field geom.Rect, base geom.Point, depots []geom.Point) *wsn.Network {
	out := &wsn.Network{Field: field, Base: base, Depots: depots}
	for id := 0; id < len(st.sensors); id++ {
		if s := st.sensors[id]; st.alive[id] {
			s.ID = len(out.Sensors)
			out.Sensors = append(out.Sensors, s)
		}
	}
	return out
}

// churnBatch builds a mixed batch of ~size valid non-structural ops:
// joins inside the field with cycles above τ_1, leaves and rate updates
// of live slots, each live slot touched at most once per batch.
func churnBatch(r *rand.Rand, st *State, field geom.Rect, size int) []Op {
	var ops []Op
	touched := map[int]bool{}
	pickLive := func() int {
		for tries := 0; tries < 200; tries++ {
			id := r.Intn(len(st.sensors))
			if st.alive[id] && !touched[id] {
				touched[id] = true
				return id
			}
		}
		return -1
	}
	live := st.N()
	for i := 0; i < size; i++ {
		switch roll := r.Float64(); {
		case roll < 0.5:
			ops = append(ops, Op{
				Kind:  OpJoin,
				X:     field.Min.X + r.Float64()*field.Width(),
				Y:     field.Min.Y + r.Float64()*field.Height(),
				Cycle: st.Tau1() * (1 + r.Float64()*15),
			})
			live++
		case roll < 0.75 && live > 8:
			if id := pickLive(); id >= 0 {
				ops = append(ops, Op{Kind: OpLeave, ID: id})
				live--
			}
		default:
			if id := pickLive(); id >= 0 {
				ops = append(ops, Op{Kind: OpRate, ID: id, Cycle: st.Tau1() * (1 + r.Float64()*15)})
			}
		}
	}
	if len(ops) == 0 {
		ops = append(ops, Op{Kind: OpJoin, X: 500, Y: 500, Cycle: st.Tau1() * 3})
	}
	return ops
}

// TestDeltaChurnInvariants drives a session through sustained random
// churn and checks, after every batch: the structural invariants
// (coverage, exact costs, gap feasibility) via Verify, the incremental
// fingerprint against a from-scratch Fingerprint of the reconstructed
// live deployment, and that versions advance one per batch.
func TestDeltaChurnInvariants(t *testing.T) {
	net := testNetwork(t, 60, 3, 21)
	st := newState(t, net, Config{T: 64, Workers: 2})
	r := rand.New(rand.NewSource(31))
	version := st.Version()
	for batch := 0; batch < 40; batch++ {
		ops := churnBatch(r, st, net.Field, 6)
		res, err := st.Apply(ops)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		version++
		if st.Version() != version {
			t.Fatalf("batch %d: version %d, want %d", batch, st.Version(), version)
		}
		ref := liveNetwork(st, net.Field, net.Base, net.Depots)
		if got, want := st.Fingerprint(), wsn.Fingerprint(ref); got != want {
			t.Fatalf("batch %d: incremental fingerprint %x, from-scratch %x", batch, got, want)
		}
		if math.Abs(res.Cost-st.Cost()) > 1e-9*st.Cost() {
			t.Fatalf("batch %d: result cost %g, state cost %g", batch, res.Cost, st.Cost())
		}
	}
	if st.PatchedOps() == 0 {
		t.Fatal("no ops were absorbed as patches")
	}
}

// TestDeltaPatchVsReplanCost bounds patched-plan degradation: after
// sustained churn the patched schedule must stay within a modest factor
// of a from-scratch replan of the identical live deployment. (The tight
// 5% bound is measured at n=50k by the churn-smoke harness; this pins
// the property at test scale with slack for small-instance noise.)
func TestDeltaPatchVsReplanCost(t *testing.T) {
	net := testNetwork(t, 80, 4, 22)
	st := newState(t, net, Config{T: 64, MaxDrift: 1e18}) // never ask for reconciliation
	r := rand.New(rand.NewSource(32))
	for batch := 0; batch < 25; batch++ {
		if _, err := st.Apply(churnBatch(r, st, net.Field, 6)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := PlanSnapshot(st.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Fingerprint() != st.Fingerprint() {
		t.Fatalf("replanned snapshot fingerprint %x, live %x", fresh.Fingerprint(), st.Fingerprint())
	}
	ratio := st.Cost() / fresh.Cost()
	if ratio > 1.30 {
		t.Fatalf("patched cost %g is %.2fx the from-scratch replan %g", st.Cost(), ratio, fresh.Cost())
	}
	if st.Drift() <= 0 {
		t.Fatal("churn accumulated no drift signal")
	}
}

// TestDeltaDriftTriggersReplan checks the reconciliation signal fires
// under a tight drift budget and that Replan resets it.
func TestDeltaDriftTriggersReplan(t *testing.T) {
	net := testNetwork(t, 50, 3, 23)
	st := newState(t, net, Config{T: 64, MaxDrift: 1e-6})
	r := rand.New(rand.NewSource(33))
	fired := false
	for batch := 0; batch < 10 && !fired; batch++ {
		res, err := st.Apply(churnBatch(r, st, net.Field, 6))
		if err != nil {
			t.Fatal(err)
		}
		fired = fired || res.NeedReplan
	}
	if !fired {
		t.Fatal("drift never crossed a 1e-6 budget under churn")
	}
	replans := st.Replans()
	if err := st.Replan(); err != nil {
		t.Fatal(err)
	}
	if st.Replans() != replans+1 {
		t.Fatalf("Replans %d, want %d", st.Replans(), replans+1)
	}
	if st.Drift() != 0 {
		t.Fatalf("drift %g after replan, want 0", st.Drift())
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaStructuralReplan checks a join below the base period τ_1
// replans inline: patching cannot express a finer round grid.
func TestDeltaStructuralReplan(t *testing.T) {
	net := testNetwork(t, 40, 3, 24)
	st := newState(t, net, Config{T: 64, MaxRounds: 1000})
	tau1 := st.Tau1()
	res, err := st.Apply([]Op{{Kind: OpJoin, X: 400, Y: 400, Cycle: tau1 / 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replanned {
		t.Fatal("sub-τ_1 join did not trigger a structural replan")
	}
	if st.Tau1() >= tau1 {
		t.Fatalf("τ_1 %g did not shrink from %g", st.Tau1(), tau1)
	}
	if st.Replans() != 1 {
		t.Fatalf("Replans %d, want 1", st.Replans())
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	// MaxRounds guards the structural path: a cycle so small the round
	// grid would explode is rejected atomically, before any mutation.
	before := st.Fingerprint()
	if _, err := st.Apply([]Op{{Kind: OpJoin, X: 10, Y: 10, Cycle: 1e-6}}); err == nil {
		t.Fatal("expected round-cap rejection")
	}
	if st.Fingerprint() != before {
		t.Fatal("rejected batch mutated the state")
	}
}

// TestDeltaBatchAtomicity checks whole-batch validation: one bad op
// rejects the batch with zero state change, and intra-batch
// dependencies (leave of a slot joined earlier in the same batch) are
// honored.
func TestDeltaBatchAtomicity(t *testing.T) {
	net := testNetwork(t, 30, 2, 25)
	st := newState(t, net, Config{T: 64})
	fp, ver, cost := st.Fingerprint(), st.Version(), st.Cost()

	bad := [][]Op{
		{{Kind: OpJoin, X: 100, Y: 100, Cycle: 10}, {Kind: OpLeave, ID: 9999}},
		{{Kind: OpLeave, ID: 3}, {Kind: OpLeave, ID: 3}},
		{{Kind: OpRate, ID: 0, Cycle: -1}},
		{{Kind: OpJoin, X: math.NaN(), Y: 0, Cycle: 10}},
		{{Kind: OpJoin, X: 1e9, Y: 0, Cycle: 10}},
		{},
	}
	for i, ops := range bad {
		if _, err := st.Apply(ops); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		if st.Fingerprint() != fp || st.Version() != ver || st.Cost() != cost { //lint:allow floateq atomicity contract: rejected batch leaves bits untouched
			t.Fatalf("bad batch %d mutated the state", i)
		}
	}
	// A batch draining every sensor must be rejected too.
	drain := make([]Op, 0, st.N())
	for id := 0; id < len(st.sensors); id++ {
		drain = append(drain, Op{Kind: OpLeave, ID: id})
	}
	if _, err := st.Apply(drain); err == nil {
		t.Fatal("batch leaving zero live sensors accepted")
	}

	// Join + immediate leave of the joined slot in one batch: legal,
	// net-zero membership.
	res, err := st.Apply([]Op{
		{Kind: OpJoin, X: 200, Y: 300, Cycle: 12},
		{Kind: OpLeave, ID: len(st.sensors)}, // the slot the join above gets
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joined) != 1 {
		t.Fatalf("Joined = %v, want one slot", res.Joined)
	}
	if st.alive[res.Joined[0]] {
		t.Fatal("slot joined and left in one batch is still live")
	}
	if st.Fingerprint() != fp {
		t.Fatal("net-zero batch changed the fingerprint")
	}
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaRateReclass moves one sensor across several cycle classes
// and back, checking membership follows its class each time.
func TestDeltaRateReclass(t *testing.T) {
	net := testNetwork(t, 40, 3, 26)
	st := newState(t, net, Config{T: 64})
	if st.K() < 1 {
		t.Skip("topology produced a single class")
	}
	id := 7
	for _, mult := range []float64{1, 30, 1.5, 8, 1} {
		if _, err := st.Apply([]Op{{Kind: OpRate, ID: id, Cycle: st.Tau1() * mult}}); err != nil {
			t.Fatal(err)
		}
		if err := st.Verify(); err != nil {
			t.Fatalf("mult %g: %v", mult, err)
		}
		v := st.View()
		s := st.sensors[id]
		// Prefix membership: a sensor of class c appears in exactly the
		// solutions D_c..D_K.
		want := core.ClassIndex(s.Cycle, v.Tau1, 2)
		if want > v.K {
			want = v.K
		}
		for k, sol := range v.Solutions {
			found := false
			for _, tour := range sol.Tours {
				for _, stop := range tour.Stops {
					if stop == id {
						found = true
					}
				}
			}
			if found != (k >= want) {
				t.Fatalf("mult %g: sensor (class %d) in D_%d = %v", mult, want, k, found)
			}
		}
	}
}

// TestDeltaSnapshotReplayConverges is the reconciliation contract: a
// snapshot taken mid-stream, full-replanned and then fed the batches
// the live session absorbed meanwhile, converges to the live session's
// version and deployment.
func TestDeltaSnapshotReplayConverges(t *testing.T) {
	net := testNetwork(t, 60, 3, 27)
	st := newState(t, net, Config{T: 64, MaxDrift: 1e18})
	r := rand.New(rand.NewSource(37))
	for batch := 0; batch < 8; batch++ {
		if _, err := st.Apply(churnBatch(r, st, net.Field, 5)); err != nil {
			t.Fatal(err)
		}
	}

	snap := st.Snapshot()
	ring := NewOpRing(16)
	for batch := 0; batch < 6; batch++ {
		ops := churnBatch(r, st, net.Field, 5)
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
		ring.Append(ops)
	}

	fresh, err := PlanSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ring.Overflowed() {
		t.Fatal("ring overflowed at 6 < 16 batches")
	}
	for _, ops := range ring.Drain() {
		if _, err := fresh.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	if fresh.Version() != st.Version() {
		t.Fatalf("replayed version %d, live %d", fresh.Version(), st.Version())
	}
	if fresh.Fingerprint() != st.Fingerprint() {
		t.Fatalf("replayed fingerprint %x, live %x", fresh.Fingerprint(), st.Fingerprint())
	}
	if fresh.N() != st.N() || len(fresh.sensors) != len(st.sensors) {
		t.Fatalf("replayed shape (%d,%d), live (%d,%d)", fresh.N(), len(fresh.sensors), st.N(), len(st.sensors))
	}
	if fresh.Replans() != st.Replans()+1 {
		t.Fatalf("replayed Replans %d, want live+1 = %d", fresh.Replans(), st.Replans()+1)
	}
	if err := fresh.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaConfigValidation pins the session-config restrictions.
func TestDeltaConfigValidation(t *testing.T) {
	net := testNetwork(t, 10, 2, 28)
	for _, cfg := range []Config{
		{T: 0},
		{T: -5},
		{T: math.Inf(1)},
		{T: 64, Base: 2.5}, // non-integer base: rounds above class 0 never dispatch
		{T: 64, Base: 1},
	} {
		if _, err := New(net, cfg, nil); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if _, err := New(net, Config{T: 64, Base: 3}, nil); err != nil {
		t.Fatalf("integer base 3 rejected: %v", err)
	}
	if _, err := New(net, Config{T: 64, MaxRounds: 2}, nil); err == nil {
		t.Fatal("MaxRounds 2 accepted for a 64-period session")
	}
}

// TestOpRing pins the ring's order, overflow and drain-reset behavior.
func TestOpRing(t *testing.T) {
	r := NewOpRing(3)
	mk := func(id int) []Op { return []Op{{Kind: OpLeave, ID: id}} }
	r.Append(mk(0))
	r.Append(mk(1))
	if r.n != 2 || r.Overflowed() {
		t.Fatalf("n=%d Overflowed=%v", r.n, r.Overflowed())
	}
	r.Append(mk(2))
	r.Append(mk(3)) // full: refused, flagged
	if !r.Overflowed() || r.n != 3 {
		t.Fatalf("after overflow: n=%d Overflowed=%v", r.n, r.Overflowed())
	}
	got := r.Drain()
	if len(got) != 3 || got[0][0].ID != 0 || got[1][0].ID != 1 || got[2][0].ID != 2 {
		t.Fatalf("Drain = %v", got)
	}
	if r.n != 0 || r.Overflowed() {
		t.Fatal("Drain did not reset the ring")
	}
	r.Append(mk(9))
	if got := r.Drain(); len(got) != 1 || got[0][0].ID != 9 {
		t.Fatalf("reuse after drain: %v", got)
	}
}

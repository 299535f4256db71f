package delta

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/rooted"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/wsn"
)

// FuzzPatchedVerifyReplayAgree is sim's FuzzVerifyReplayAgree carried
// over to patched delta plans: it applies fuzz-derived join, leave and
// rate batches to a small State and, after every batch, asks the three
// feasibility verdicts of the repo about the plan the State now holds —
// State.Verify on the slot-indexed solutions, sched.Schedule.Verify on
// the materialized schedule over the live cycles, and the exact
// energetic sim.Replay under fixed rates. A patched plan is feasible by
// construction (Lemma 2), so all three must accept it.
//
// Each op takes four bytes (kind, a, b, c); the first byte of the input
// sets the batch size. A batch the State rejects leaves it unchanged.
func FuzzPatchedVerifyReplayAgree(f *testing.F) {
	f.Add([]byte{2, 0, 10, 200, 7, 1, 3, 0, 0, 2, 1, 0, 12})
	f.Add([]byte{0, 2, 4, 0, 1, 0, 90, 90, 0, 1, 5, 0, 0})
	f.Add([]byte{3, 0, 255, 0, 39, 0, 128, 128, 0, 2, 6, 9, 0, 1, 0, 0, 0, 2, 7, 0, 39})
	net := testNetwork(f, 6, 2, 5)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			t.Skip()
		}
		st := newState(t, net, Config{T: 40})
		checkPatchedPlan(t, st)
		size := 1 + int(data[0]%4)
		ops := data[1:]
		if len(ops) > 4*16 {
			ops = ops[:4*16] // at most 16 ops per input
		}
		var batch []Op
		for len(ops) >= 4 {
			batch = append(batch, fuzzOp(st, len(batch), ops[:4]))
			ops = ops[4:]
			if len(batch) < size && len(ops) >= 4 {
				continue
			}
			_, err := st.Apply(batch)
			batch = batch[:0]
			var be *BatchError
			if err != nil && !errors.As(err, &be) {
				t.Fatalf("Apply: %v", err)
			}
			checkPatchedPlan(t, st)
		}
	})
}

// fuzzOp decodes one op from four bytes. Joins land inside the field;
// ids range a little past the slot array so that some leaves and rate
// updates name unknown or departed sensors; cycles span [1, 41), below
// τ_1 at times, which forces a structural replan.
func fuzzOp(st *State, inBatch int, b []byte) Op {
	cycle := 1 + float64(b[3]%40) + float64(b[2])/256
	slots := len(st.sensors) + inBatch + 1
	switch b[0] % 3 {
	case 0:
		return Op{
			Kind:  OpJoin,
			X:     st.field.Min.X + float64(b[1])/255*st.field.Width(),
			Y:     st.field.Min.Y + float64(b[2])/255*st.field.Height(),
			Cycle: cycle,
		}
	case 1:
		return Op{Kind: OpLeave, ID: int(b[1]) % slots}
	default:
		return Op{Kind: OpRate, ID: int(b[1]) % slots, Cycle: cycle}
	}
}

// checkPatchedPlan materializes st's plan as a sched.Schedule — round j
// at j·τ_1 inside (0, T) dispatches D_k for k = core.RoundOrder(j, base,
// K) — and fails unless State.Verify, Schedule.Verify and sim.Replay all
// accept it. Dead slots stay in the replayed network, never due: their
// cycle is +Inf.
func checkPatchedPlan(t *testing.T, st *State) {
	t.Helper()
	if err := st.Verify(); err != nil {
		t.Fatalf("State.Verify: %v", err)
	}
	v := st.View()
	s := &sched.Schedule{T: v.T}
	rounds := make([]int, v.K+1)
	for j := 1; float64(j)*v.Tau1 < v.T-1e-9; j++ {
		k := core.RoundOrder(j, st.base, v.K)
		rounds[k]++
		var tours []rooted.Tour
		for _, tv := range v.Solutions[k].Tours {
			tours = append(tours, rooted.Tour{Depot: v.Slots + tv.Depot, Stops: tv.Stops, Cost: tv.Cost})
		}
		s.Rounds = append(s.Rounds, sched.Round{Time: float64(j) * v.Tau1, Tours: tours})
	}
	for k, sv := range v.Solutions {
		if sv.Rounds != rounds[k] {
			t.Fatalf("view says D_%d replays in %d rounds, the materialized schedule has %d", k, sv.Rounds, rounds[k])
		}
	}
	slots := &wsn.Network{Sensors: make([]wsn.Sensor, v.Slots)}
	cycles := make([]float64, v.Slots)
	for i := range slots.Sensors {
		slots.Sensors[i] = st.sensors[i]
		cycles[i] = st.sensors[i].Cycle
		if !st.alive[i] {
			slots.Sensors[i].Cycle = math.Inf(1)
			cycles[i] = math.Inf(1)
		}
	}
	if err := s.Verify(cycles, 1e-9); err != nil {
		t.Fatalf("Schedule.Verify rejects the patched plan: %v", err)
	}
	rep, err := sim.Replay(slots, energy.NewFixed(slots), s)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Deaths != 0 {
		t.Fatalf("Replay: %d sensors die (first at %g) under a plan every gap check accepts", rep.Deaths, rep.FirstDeath)
	}
}

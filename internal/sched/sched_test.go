package sched

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rooted"
)

func tour(depot int, cost float64, stops ...int) rooted.Tour {
	return rooted.Tour{Depot: depot, Stops: stops, Cost: cost}
}

// charges returns a schedule over [0, T] that charges sensor 0 once at
// each of the given times, one round per time.
func charges(T float64, times ...float64) *Schedule {
	s := &Schedule{T: T}
	for _, at := range times {
		s.Rounds = append(s.Rounds, Round{Time: at, Tours: []rooted.Tour{tour(100, 1, 0)}})
	}
	return s
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("error containing %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestRoundCostAndSensors(t *testing.T) {
	r := Round{Time: 5, Tours: []rooted.Tour{
		tour(100, 10, 0, 1),
		tour(101, 0),
		tour(102, 7.5, 2),
	}}
	if got := r.Cost(); math.Abs(got-17.5) > 1e-12 {
		t.Errorf("Cost = %g", got)
	}
	got := r.Sensors()
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Sensors = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sensors = %v, want %v", got, want)
		}
	}
}

func TestScheduleCostAndDispatches(t *testing.T) {
	s := &Schedule{T: 100, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 5, 0)}},
		{Time: 20, Tours: []rooted.Tour{tour(100, 0)}}, // empty round
		{Time: 30, Tours: []rooted.Tour{tour(100, 3, 1)}},
	}}
	if math.Abs(s.Cost()-8) > 1e-12 {
		t.Errorf("Cost = %g", s.Cost())
	}
	if s.Dispatches() != 2 {
		t.Errorf("Dispatches = %d", s.Dispatches())
	}
}

func TestChargeTimes(t *testing.T) {
	s := &Schedule{T: 100, Rounds: []Round{
		{Time: 30, Tours: []rooted.Tour{tour(100, 1, 0, 1)}},
		{Time: 10, Tours: []rooted.Tour{tour(100, 1, 1)}},
	}}
	times := s.ChargeTimes(2)
	if len(times[0]) != 1 || times[0][0] != 30 { //lint:allow floateq charge times are recorded round times, exact
		t.Errorf("sensor 0 times = %v", times[0])
	}
	if len(times[1]) != 2 || times[1][0] != 10 || times[1][1] != 30 { //lint:allow floateq charge times are recorded round times, exact
		t.Errorf("sensor 1 times (sorted) = %v", times[1])
	}
	// Out-of-range IDs are ignored, not panicking.
	s2 := &Schedule{T: 100, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 1, 7)}},
	}}
	if got := s2.ChargeTimes(2); len(got[0]) != 0 && len(got[1]) != 0 {
		t.Errorf("out-of-range sensor leaked: %v", got)
	}
}

func TestVerifyFeasible(t *testing.T) {
	// Sensor 0 (cycle 15) charged at 10, 20; sensor 1 (cycle 40) at 20.
	s := &Schedule{T: 50, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 1, 0)}},
		{Time: 20, Tours: []rooted.Tour{tour(100, 1, 0, 1)}},
		{Time: 35, Tours: []rooted.Tour{tour(100, 1, 0)}},
	}}
	if err := s.Verify([]float64{15, 40}, 1e-9); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
	// Cycle 10, charges at 10 and 20, T = 25: every gap is at most 10.
	if err := charges(25, 10, 20).Verify([]float64{10}, 1e-9); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
	// No charge at all is fine when T fits inside one cycle.
	if err := charges(10).Verify([]float64{10}, 1e-9); err != nil {
		t.Errorf("single-cycle horizon rejected: %v", err)
	}
}

func TestVerifyDetectsGapViolations(t *testing.T) {
	// Initial gap too long.
	s := &Schedule{T: 50, Rounds: []Round{
		{Time: 20, Tours: []rooted.Tour{tour(100, 1, 0)}},
	}}
	if err := s.Verify([]float64{15, 100}, 1e-9); err == nil {
		t.Error("initial gap 20 > cycle 15 accepted")
	}
	// Mid gap too long.
	s = &Schedule{T: 50, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 1, 0)}},
		{Time: 40, Tours: []rooted.Tour{tour(100, 1, 0)}},
	}}
	if err := s.Verify([]float64{15, 100}, 1e-9); err == nil {
		t.Error("mid gap 30 > 15 accepted")
	}
	// Tail gap too long.
	s = &Schedule{T: 50, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 1, 0)}},
		{Time: 20, Tours: []rooted.Tour{tour(100, 1, 0)}},
	}}
	if err := s.Verify([]float64{15, 100}, 1e-9); err == nil {
		t.Error("tail gap 30 > 15 accepted")
	}
	// Never charged at all, cycle < T.
	s = &Schedule{T: 50}
	if err := s.Verify([]float64{15}, 1e-9); err == nil {
		t.Error("never-charged sensor accepted")
	}
	// Never charged but cycle >= T is fine.
	if err := s.Verify([]float64{60}, 1e-9); err != nil {
		t.Errorf("long-cycle sensor rejected: %v", err)
	}
	wantErr(t, charges(20, 15).Verify([]float64{10}, 1e-9), "sensor 0 gap")
	wantErr(t, charges(20, 5).Verify([]float64{10}, 1e-9), "tail gap")
}

// TestVerifyRejectsUnknownSensors pins that a stop outside
// [0, len(cycles)) is an error, not a sensor Verify silently skips: the
// schedule is feasible for the network's two sensors either way.
func TestVerifyRejectsUnknownSensors(t *testing.T) {
	cycles := []float64{30, 30}
	ok := &Schedule{T: 50, Rounds: []Round{
		{Time: 20, Tours: []rooted.Tour{tour(100, 1, 0, 1)}},
		{Time: 40, Tours: []rooted.Tour{tour(100, 1, 1), tour(101, 1, 0)}},
	}}
	if err := ok.Verify(cycles, 1e-9); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
	for _, bad := range []int{-1, len(cycles), 99} {
		s := &Schedule{T: 50, Rounds: []Round{
			ok.Rounds[0],
			{Time: 40, Tours: []rooted.Tour{tour(100, 1, 1), tour(101, 1, 0, bad)}},
		}}
		wantErr(t, s.Verify(cycles, 1e-9), "network has 2")
	}
}

func TestVerifyDetectsBadTimes(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name   string
		s      *Schedule
		cycles []float64
		want   string
	}{
		{"round at 0", charges(50, 0), []float64{100}, "outside (0, 50)"},
		{"round at T", charges(50, 50), []float64{100}, "outside (0, 50)"},
		{"unordered rounds", charges(50, 30, 10), []float64{100}, "before previous round"},
		// Charges out of time order are out-of-order rounds.
		{"unordered charges", charges(40, 20, 10), []float64{30}, "before previous round"},
		{"round at NaN", charges(50, nan), []float64{10}, "outside (0, 50)"},
		{"NaN T", &Schedule{T: nan}, []float64{10}, "not finite"},
		{"infinite T", &Schedule{T: math.Inf(1)}, []float64{10}, "not finite"},
		{"NaN cycle, charged", charges(50, 10, 20, 30, 40), []float64{nan}, "gap 10 > cycle NaN"},
		{"NaN cycle, never charged", &Schedule{T: 50}, []float64{nan}, "tail gap 50 > cycle NaN"},
	} {
		t.Run(c.name, func(t *testing.T) { wantErr(t, c.s.Verify(c.cycles, 1e-9), c.want) })
	}
}

func TestVerifyCadenceMatchesVerify(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(a, b) }
	r := rand.New(rand.NewSource(17))
	var charged, never, neverCadenceOnly, tailOnly, rejected int
	for trial := 0; trial < 4000; trial++ {
		T := 5 + 95*r.Float64()
		period := T * (0.02 + 1.5*r.Float64())
		cycle := period * (0.5 + r.Float64())
		if trial%4 == 0 {
			cycle = T * (0.5 + r.Float64()) // around T, for never-charged sensors
		}
		last := math.Floor(T/period) * period
		if near(period, cycle) || near(T, cycle) || near(T-last, cycle) || near(T, last) || near(T, last+period) {
			continue
		}
		s := &Schedule{T: T}
		for j := 1; float64(j)*period < T; j++ {
			s.Rounds = append(s.Rounds, Round{Time: float64(j) * period, Tours: []rooted.Tour{tour(1, 0, 0)}})
		}
		verifyOK := s.Verify([]float64{cycle}, 1e-9) == nil
		cadenceOK := VerifyCadence(period, cycle, T) == nil
		want := verifyOK
		if len(s.Rounds) == 0 {
			never++
			want = verifyOK && period <= cycle
			if verifyOK && !want {
				neverCadenceOnly++
			}
			if !verifyOK {
				tailOnly++ // the tail from t = 0 is the only gap
			}
		} else {
			charged++
		}
		if !want {
			rejected++
		}
		if cadenceOK != want {
			t.Fatalf("period %g cycle %g T %g (%d rounds): VerifyCadence ok=%v, want %v (Verify ok=%v)",
				period, cycle, T, len(s.Rounds), cadenceOK, want, verifyOK)
		}
	}
	if charged < 100 || never < 100 || neverCadenceOnly < 10 || tailOnly < 10 || rejected < 100 {
		t.Fatalf("draws miss a case: charged %d, never %d (cadence-only rejections %d, tail-only %d), rejected %d",
			charged, never, neverCadenceOnly, tailOnly, rejected)
	}
}

// TestVerifyCadenceRejects pins VerifyCadence's rejections: NaN and
// infinite input, and the terminal-gap check inside its 1e-9 band,
// with a row on each side of the band.
func TestVerifyCadenceRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name              string
		period, cycle, tT float64
		want              string // "" for a pass
	}{
		{"NaN period", nan, 5, 100, "exceeds cycle"},
		{"NaN cycle", 4, nan, 100, "exceeds cycle NaN"},
		{"NaN T", 4, 5, nan, "not finite"},
		{"infinite T", 4, 5, inf, "not finite"},
		// cycle < 1: the multiple 1.5 lies within 1e-9 of T and does
		// not count, so the gap from 1.0 is 0.5+0.75e-9.
		{"band, period == cycle < 1", 0.5, 0.5, 1.5 + 0.75e-9, "terminal gap"},
		{"below band, period == cycle < 1", 0.5, 0.5, 1.5 + 0.25e-9, ""},
		// period at the relative tolerance edge cycle(1+1e-9).
		{"band, period at tolerance edge", 1 + 1e-9, 1, 3 + 3.5e-9, "terminal gap"},
		{"period == cycle == 1 has no band", 1, 1, 3 + 0.5e-9, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := VerifyCadence(c.period, c.cycle, c.tT)
			if c.want == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				return
			}
			wantErr(t, err, c.want)
		})
	}
}

func TestSummarize(t *testing.T) {
	s := &Schedule{T: 100, Rounds: []Round{
		{Time: 10, Tours: []rooted.Tour{tour(100, 4, 0, 1), tour(101, 0)}},
		{Time: 20, Tours: []rooted.Tour{tour(100, 6, 2)}},
	}}
	st := s.Summarize()
	if math.Abs(st.Cost-10) > 1e-12 || st.Rounds != 2 || st.Dispatches != 2 || st.SensorCharges != 3 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.MeanTourLen-5) > 1e-12 {
		t.Errorf("MeanTourLen = %g, want 5 (empty tours excluded)", st.MeanTourLen)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := &Schedule{T: 100}
	st := s.Summarize()
	if st.Cost != 0 || st.MeanTourLen != 0 || st.Dispatches != 0 {
		t.Errorf("empty stats = %+v", st)
	}
}

// Package sched defines charging schedules — the objects the paper's
// optimization problem ranges over — and verifies their feasibility.
//
// A charging scheduling (C_j, t_j) dispatches all q mobile chargers at
// time t_j on closed tours C_j = {C_j,1 ... C_j,q}, one per depot; every
// sensor visited is recharged to full capacity. A schedule is feasible
// for maximum charging cycles τ if, for every sensor, the gap between
// consecutive charges — including the implicit full charge at t = 0 and
// the gap to the end of the monitoring period T — never exceeds τ_i.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rooted"
)

// Round is one charging scheduling: the q tours dispatched at Time.
type Round struct {
	Time  float64
	Tours []rooted.Tour
}

// Cost returns the total tour length of the round.
func (r Round) Cost() float64 {
	var sum float64
	for _, t := range r.Tours {
		sum += t.Cost
	}
	return sum
}

// Sensors returns the IDs of all sensors charged in the round, in tour
// order.
func (r Round) Sensors() []int {
	var out []int
	for _, t := range r.Tours {
		out = append(out, t.Stops...)
	}
	return out
}

// Schedule is a series of charging schedulings ordered by dispatch time.
type Schedule struct {
	Rounds []Round
	// T is the monitoring period the schedule was built for.
	T float64
}

// Cost returns the service cost: the total travelled distance across all
// rounds (the paper's objective).
func (s *Schedule) Cost() float64 {
	var sum float64
	for _, r := range s.Rounds {
		sum += r.Cost()
	}
	return sum
}

// Dispatches returns the number of rounds with at least one charged
// sensor.
func (s *Schedule) Dispatches() int {
	n := 0
	for _, r := range s.Rounds {
		if len(r.Sensors()) > 0 {
			n++
		}
	}
	return n
}

// ChargeTimes returns, for each of n sensors, the sorted times at which
// the schedule charges it (t = 0 not included).
func (s *Schedule) ChargeTimes(n int) [][]float64 {
	times := make([][]float64, n)
	for _, r := range s.Rounds {
		for _, id := range r.Sensors() {
			if id >= 0 && id < n {
				times[id] = append(times[id], r.Time)
			}
		}
	}
	for i := range times {
		sort.Float64s(times[i])
	}
	return times
}

// Verify checks feasibility of s against fixed maximum charging cycles:
// every sensor i must be charged with gaps of at most cycles[i], counting
// the initial full charge at time 0 and the tail gap to T. It also checks
// that rounds are time-ordered within (0, T) and that every stop is a
// sensor of the network, an id in [0, len(cycles)). eps absorbs
// floating-point slack in gap comparisons. A NaN time or cycle, or a T
// that is not finite, fails: every comparison is written so that NaN
// lands on the rejecting side.
//
// It is one pass over the rounds: they must come in time order, so each
// sensor's charges arrive sorted and only its last charge time is kept.
func (s *Schedule) Verify(cycles []float64, eps float64) error {
	if math.IsNaN(s.T) || math.IsInf(s.T, 0) {
		return fmt.Errorf("sched: monitoring period T = %g is not finite", s.T)
	}
	last := make([]float64, len(cycles)) // full charge at deployment
	prev := math.Inf(-1)
	for j, r := range s.Rounds {
		if !(r.Time > 0 && r.Time < s.T) {
			return fmt.Errorf("sched: round %d dispatched at %g outside (0, %g)", j, r.Time, s.T)
		}
		if r.Time < prev {
			return fmt.Errorf("sched: round %d at time %g before previous round at %g", j, r.Time, prev)
		}
		prev = r.Time
		for _, t := range r.Tours {
			for _, i := range t.Stops {
				if i < 0 || i >= len(cycles) {
					return fmt.Errorf("sched: round %d charges sensor %d, network has %d", j, i, len(cycles))
				}
				if gap := r.Time - last[i]; !(gap <= cycles[i]+eps) {
					return fmt.Errorf("sched: sensor %d gap %g > cycle %g (charge at %g after %g)",
						i, gap, cycles[i], r.Time, last[i])
				}
				last[i] = r.Time
			}
		}
	}
	for i, t := range last {
		if gap := s.T - t; !(gap <= cycles[i]+eps) {
			return fmt.Errorf("sched: sensor %d tail gap %g > cycle %g (last charge at %g, T=%g)",
				i, gap, cycles[i], t, s.T)
		}
	}
	return nil
}

// VerifyCadence is Verify's closed form for one sensor on a fixed
// charging period: charged at every multiple of period strictly inside
// (0, T), as class c of a MinTotalDistance plan is with period
// base^c·τ_1. The period must fit within cycle, and so must the
// terminal gap from the last such charge to T. Both comparisons allow
// a relative 1e-9. Unlike Verify on that schedule, it asks the period
// to fit even when T ends before the first charge: the period is the
// cadence the plan keeps, not just its part inside the horizon. A NaN
// argument or a T that is not finite fails, as in Verify.
func VerifyCadence(period, cycle, T float64) error {
	if math.IsNaN(T) || math.IsInf(T, 0) {
		return fmt.Errorf("sched: monitoring period T = %g is not finite", T)
	}
	if !(period <= cycle*(1+1e-9)) {
		return fmt.Errorf("sched: period %g exceeds cycle %g", period, cycle)
	}
	// Last charge: the largest multiple of period at most T-1e-9, so a
	// multiple within 1e-9 of T does not count as inside (0, T). Its
	// gap to T must also fit (terminal gap of Lemma 2). Since the
	// period fits, T-last < period+1e-9 <= cycle(1+1e-9)+1e-9: this
	// check can fire only inside that band, when period is within an
	// absolute 1e-9 of the relative tolerance edge cycle(1+1e-9) — for
	// cycle < 1 that includes period == cycle — and the dropped
	// multiple would have closed the gap (TestVerifyCadenceRejects).
	last := period * math.Floor((T-1e-9)/period)
	if last > 0 && !(T-last <= cycle*(1+1e-9)) {
		return fmt.Errorf("sched: terminal gap %g exceeds cycle %g", T-last, cycle)
	}
	return nil
}

// Stats summarizes a schedule for experiment output.
type Stats struct {
	Cost       float64
	Rounds     int
	Dispatches int
	// SensorCharges is the total number of sensor-charge events.
	SensorCharges int
	// MeanTourLen is the mean length of non-empty tours.
	MeanTourLen float64
}

// Summarize computes Stats for s.
func (s *Schedule) Summarize() Stats {
	st := Stats{Cost: s.Cost(), Rounds: len(s.Rounds), Dispatches: s.Dispatches()}
	nonEmpty := 0
	var totalLen float64
	for _, r := range s.Rounds {
		st.SensorCharges += len(r.Sensors())
		for _, t := range r.Tours {
			if len(t.Stops) > 0 {
				nonEmpty++
				totalLen += t.Cost
			}
		}
	}
	if nonEmpty > 0 {
		st.MeanTourLen = totalLen / float64(nonEmpty)
	}
	return st
}

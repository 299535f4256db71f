package stats

//lint:file-allow floateq inputs are chosen so the statistics are exactly representable; inexact cases already use tolerances
import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g", got)
	}
	if got := Mean([]float64{7}); got != 7 {
		t.Errorf("Mean single = %g", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestStdDev(t *testing.T) {
	// Known sample: {2,4,4,4,5,5,7,9} has sample sd ~2.138.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := StdDev(xs); math.Abs(got-2.1380899353) > 1e-9 {
		t.Errorf("StdDev = %g", got)
	}
	if got := StdDev([]float64{5}); got != 0 {
		t.Errorf("StdDev single = %g", got)
	}
	if got := StdDev([]float64{3, 3, 3}); got != 0 {
		t.Errorf("StdDev constant = %g", got)
	}
}

func TestStdErrAndCI(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	se := StdErr(xs)
	if math.Abs(se-StdDev(xs)/3) > 1e-12 {
		t.Errorf("StdErr = %g", se)
	}
	if math.Abs(CI95(xs)-1.96*se) > 1e-12 {
		t.Errorf("CI95 = %g", CI95(xs))
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %g/%g", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("empty Min/Max should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // sorted: 1,2,3,4
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, tc := range cases {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if got := Quantile([]float64{9}, 0.3); got != 9 {
		t.Errorf("single quantile = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range q should panic")
		}
	}()
	Quantile(xs, 1.5)
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShiftInvarianceProperty(t *testing.T) {
	// StdDev is invariant under constant shifts.
	f := func(raw []int8, shift int8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
			b[i] = float64(v) + float64(shift)
		}
		return math.Abs(StdDev(a)-StdDev(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

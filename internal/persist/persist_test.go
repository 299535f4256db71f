package persist

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wsn"
)

func testNet(t *testing.T) *wsn.Network {
	t.Helper()
	nw, err := wsn.Generate(rng.New(77), wsn.GenConfig{
		N: 30, Q: 3, Dist: wsn.LinearDist{TauMin: 1, TauMax: 20, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNetworkRoundTrip(t *testing.T) {
	nw := testNet(t)
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, nw); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != nw.N() || got.Q() != nw.Q() {
		t.Fatalf("sizes: N=%d Q=%d", got.N(), got.Q())
	}
	if got.Base != nw.Base || got.Field != nw.Field {
		t.Errorf("geometry changed: base %v field %v", got.Base, got.Field)
	}
	for i := range nw.Sensors {
		if got.Sensors[i] != nw.Sensors[i] {
			t.Fatalf("sensor %d changed: %+v vs %+v", i, got.Sensors[i], nw.Sensors[i])
		}
	}
	for l := range nw.Depots {
		if got.Depots[l] != nw.Depots[l] {
			t.Fatalf("depot %d changed", l)
		}
	}
}

func TestScheduleRoundTripPreservesCostAndFeasibility(t *testing.T) {
	nw := testNet(t)
	plan, err := core.PlanFixed(nw, 60, core.FixedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, plan.Schedule); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Cost()-plan.Cost()) > 1e-9 {
		t.Errorf("cost changed: %g vs %g", got.Cost(), plan.Cost())
	}
	if len(got.Rounds) != len(plan.Schedule.Rounds) {
		t.Fatalf("rounds: %d vs %d", len(got.Rounds), len(plan.Schedule.Rounds))
	}
	if err := got.Verify(nw.Cycles(), 1e-6); err != nil {
		t.Errorf("deserialized schedule infeasible: %v", err)
	}
}

// TestScheduleRoundTripUnknownSensor pins that a schedule read back
// from JSON, whose reader checks no stop ids, still fails Verify when a
// stop names a sensor the network does not have.
func TestScheduleRoundTripUnknownSensor(t *testing.T) {
	// Two sensors of cycle 30 over T = 50, charged at 20 and 40.
	const doc = `{"version":1,"t":50,"rounds":[
	  {"time":20,"tours":[{"depot":2,"stops":[0,1],"cost":1}]},
	  {"time":40,"tours":[{"depot":2,"stops":[1,%s,0],"cost":1}]}]}`
	cycles := []float64{30, 30}
	for _, stop := range []string{"-1", "2", "99"} {
		var buf bytes.Buffer
		s, err := ReadSchedule(strings.NewReader(fmt.Sprintf(doc, stop)))
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteSchedule(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSchedule(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Verify(cycles, 1e-9); err == nil {
			t.Errorf("schedule charging sensor %s of 2 verified as feasible", stop)
		}
	}
	// The same schedule without the unknown stop is feasible.
	s, err := ReadSchedule(strings.NewReader(strings.Replace(doc, "%s,", "", 1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(cycles, 1e-9); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
}

func TestReadNetworkRejectsBadInput(t *testing.T) {
	if _, err := ReadNetwork(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	if _, err := ReadNetwork(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	// Structurally valid JSON but an invalid network (no depots).
	bad := `{"version":1,"field_width":100,"field_height":100,
	         "base":{"x":50,"y":50},
	         "sensors":[{"id":0,"pos":{"x":1,"y":1},"capacity":1,"cycle":5}],
	         "depots":[]}`
	if _, err := ReadNetwork(strings.NewReader(bad)); err == nil {
		t.Error("depot-less network accepted")
	}
}

func TestReadScheduleRejectsBadInput(t *testing.T) {
	if _, err := ReadSchedule(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadSchedule(strings.NewReader(`{"version": 2, "t": 1}`)); err == nil {
		t.Error("future version accepted")
	}
}

func TestNetworkJSONIsStable(t *testing.T) {
	// Serializing twice yields identical bytes (stable archives).
	nw := testNet(t)
	var a, b bytes.Buffer
	if err := WriteNetwork(&a, nw); err != nil {
		t.Fatal(err)
	}
	if err := WriteNetwork(&b, nw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("serialization not deterministic")
	}
}

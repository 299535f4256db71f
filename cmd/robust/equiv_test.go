package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// pr9Config is ROBUST_pr9.json's exact sweep configuration — the
// committed artifact the event-driven runner must reproduce.
func pr9Config() sweepConfig {
	return sweepConfig{
		N: 150, Q: 5, T: 240, TauMin: 4, TauMax: 40, Sigma: 1,
		Dt: 0.2, Seed: 1, Speed: 25000, Reps: 4,
		Intensities: []float64{0.25, 0.5, 1}, Eps: []float64{0.1},
	}
}

// TestPR9ConfigEventMatchesReference pins the tentpole equivalence at
// full scale: the whole ROBUST_pr9 sweep — 24 simulated runs over
// three intensities, replayed and redispatched — produces byte-
// identical JSON through the event-driven runner (cells and intra-cell
// replications both parallel) and through the retained reference
// runner on a single worker. Together with the tiny-config determinism
// test this pins equivalence at any worker count: worker shape cannot
// change either runner's output, and the runners agree. The event
// runner's rows must also equal the committed artifact's results
// block (ROBUST_pr10_small.json, whose results equal ROBUST_pr9.json's),
// so the committed numbers keep regenerating unchanged.
//
// The sweep takes minutes at full configuration, so -short skips it
// and race builds defer to the seconds-scale determinism tests.
func TestPR9ConfigEventMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long full-configuration sweep; run without -short")
	}
	if raceEnabled {
		t.Skip("minutes-long full-configuration sweep; race coverage comes from the tiny-config tests")
	}
	cfg := pr9Config()
	event, err := runSweep(cfg, 3, 2, "pr9")
	if err != nil {
		t.Fatal(err)
	}
	runDisturbed = sim.RunDisturbedReference
	defer func() { runDisturbed = sim.RunDisturbed }()
	ref, err := runSweep(cfg, 1, 1, "pr9")
	if err != nil {
		t.Fatal(err)
	}
	evJSON, err := json.MarshalIndent(event, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(evJSON, refJSON) {
		t.Errorf("event-driven sweep differs from reference runner at the full ROBUST_pr9 configuration:\n%s\n---\n%s", evJSON, refJSON)
	}

	data, err := os.ReadFile("../../ROBUST_pr10_small.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed outFile
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed.Config, cfg) {
		t.Fatalf("ROBUST_pr10_small.json config %+v differs from pr9Config %+v", committed.Config, cfg)
	}
	if !reflect.DeepEqual(event.Rows, committed.Rows) {
		got, _ := json.MarshalIndent(event.Rows, "", "  ")
		want, _ := json.MarshalIndent(committed.Rows, "", "  ")
		t.Errorf("sweep results no longer reproduce ROBUST_pr10_small.json:\n%s\n--- committed\n%s", got, want)
	}
}

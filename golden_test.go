package repro

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/plot"
)

// TestGoldenCells pins the exact service costs of a handful of
// experiment cells. The whole pipeline — topology generation, cycle
// draws, forest construction, Euler walks, scheduling, simulation — is
// deterministic, so any change to these values signals a behavioural
// change that EXPERIMENTS.md results would no longer reflect. If a
// change is intentional, read the new values from the test failure,
// update the constants, and refresh EXPERIMENTS.md via cmd/figures.
func TestGoldenCells(t *testing.T) {
	// Pin via tiny sweeps (1 topology at the first sweep point), which
	// exercises the exact production path including seed derivation.
	pin := func(fig string, wantFirst map[string]float64) {
		t.Helper()
		s, err := experiment.Figure(fig, experiment.Config{Topologies: 1, T: 200})
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		for algo, want := range wantFirst {
			got := s.Points[0].Summary[algo].Mean
			if math.Abs(got-want) > 0.5 {
				t.Errorf("%s x=%g %s: cost %.1f, golden %.1f — behaviour changed; "+
					"verify intentionally and refresh EXPERIMENTS.md",
					fig, s.Points[0].X, algo, got, want)
			}
		}
	}
	pin("1a", map[string]float64{
		experiment.AlgoMTD:    goldenFig1aMTD,
		experiment.AlgoGreedy: goldenFig1aGreedy,
	})
	pin("3", map[string]float64{
		experiment.AlgoMTDVar: goldenFig3Var,
	})
}

// Golden values for (Topologies=1, T=200, seed 1) cells at the first
// sweep point (n=100), captured from the shipped implementation. See
// TestGoldenCells for the refresh procedure.
const (
	goldenFig1aMTD    = 119864.649546
	goldenFig1aGreedy = 251814.637208
	goldenFig3Var     = 166200.153172
)

// TestFig1aReproducesArchive regenerates Fig. 1(a) at the paper's full
// configuration (experiment.Config{}: 100 topologies per point, T =
// 1000) and byte-compares its CSV with the archived results/fig1a.csv.
// The archive predates the per-algorithm _ms wall-clock columns, which
// are not reproducible anyway, so they are dropped before comparing.
// It takes seconds, so -short and the race detector skip it.
func TestFig1aReproducesArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-configuration figure sweep; run without -short")
	}
	if raceEnabled {
		t.Skip("full-configuration figure sweep; too slow under the race detector")
	}
	s, err := experiment.Figure("1a", experiment.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plot.WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for j, h := range records[0] {
		if !strings.HasSuffix(h, "_ms") {
			keep = append(keep, j)
		}
	}
	var got bytes.Buffer
	w := csv.NewWriter(&got)
	for _, rec := range records {
		row := make([]string, len(keep))
		for k, j := range keep {
			row[k] = rec[j]
		}
		if err := w.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	want, err := os.ReadFile("results/fig1a.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Fig. 1(a) no longer reproduces results/fig1a.csv:\n%s\n--- archived\n%s", got.Bytes(), want)
	}
}

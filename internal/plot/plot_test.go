package plot

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/rooted"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wsn"
)

func sampleSeries() experiment.Series {
	mk := func(vals ...float64) map[string][]float64 {
		return map[string][]float64{
			experiment.AlgoMTD:    {vals[0], vals[0] * 1.1},
			experiment.AlgoGreedy: {vals[1], vals[1] * 0.9},
		}
	}
	s := experiment.Series{
		Name:       "fig1a",
		XLabel:     "n",
		Algorithms: []string{experiment.AlgoMTD, experiment.AlgoGreedy},
	}
	for i, x := range []float64{100, 200} {
		costs := mk(float64(1000*(i+1)), float64(1800*(i+1)))
		pt := experiment.Point{
			X:          x,
			Costs:      costs,
			Summary:    map[string]stats.Summary{},
			Deaths:     map[string]int{experiment.AlgoMTD: 0, experiment.AlgoGreedy: 0},
			Dispatches: map[string]float64{experiment.AlgoMTD: 50, experiment.AlgoGreedy: 99},
			Replans:    map[string]float64{},
		}
		for a, cs := range costs {
			pt.Summary[a] = stats.Summarize(cs)
		}
		s.Points = append(s.Points, pt)
	}
	return s
}

func TestWriteTable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"n", "MinTotalDistance", "Greedy", "MTD/Greedy", "100", "200"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 data rows
		t.Errorf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestWriteTableSingleAlgorithm(t *testing.T) {
	s := sampleSeries()
	s.Algorithms = s.Algorithms[:1]
	var buf bytes.Buffer
	if err := WriteTable(&buf, s); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "/") {
		t.Error("ratio column present with one algorithm")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := sampleSeries()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, s); err != nil {
		t.Fatal(err)
	}
	xs, means, err := ReadCSVMeans(&buf, s.Algorithms)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 2 || xs[0] != 100 || xs[1] != 200 { //lint:allow floateq x values pass through from the sweep unchanged
		t.Errorf("xs = %v", xs)
	}
	for _, a := range s.Algorithms {
		for i, pt := range s.Points {
			if got, want := means[a][i], pt.Summary[a].Mean; got != want { //lint:allow floateq plotted means pass through from the summary unchanged
				t.Errorf("%s[%d] = %g, want %g", a, i, got, want)
			}
		}
	}
}

func TestReadCSVMeansErrors(t *testing.T) {
	if _, _, err := ReadCSVMeans(strings.NewReader("only_header\n"), nil); err == nil {
		t.Error("header-only CSV accepted")
	}
	if _, _, err := ReadCSVMeans(strings.NewReader("x,a_mean\nfoo,1\n"), []string{"a"}); err == nil {
		t.Error("bad x accepted")
	}
	if _, _, err := ReadCSVMeans(strings.NewReader("x,a_mean\n1,2\n"), []string{"b"}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestWriteSVG(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSVG(&buf, sampleSeries(), SVGOptions{Title: "Fig <1a>"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("not a well-formed SVG envelope")
	}
	if !strings.Contains(out, "polyline") {
		t.Error("no polylines")
	}
	if !strings.Contains(out, "Fig &lt;1a&gt;") {
		t.Error("title not escaped")
	}
	// One polyline per algorithm.
	if got := strings.Count(out, "<polyline"); got != 2 {
		t.Errorf("polylines = %d, want 2", got)
	}
	if err := WriteSVG(&buf, experiment.Series{Name: "empty"}, SVGOptions{}); err == nil {
		t.Error("empty series accepted")
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		100:  "100",
		2.5:  "2.5",
		0.25: "0.25",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMarkdown(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, 2 rows
		t.Fatalf("markdown lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "|---|") {
		t.Errorf("separator row = %q", lines[1])
	}
	if !strings.Contains(lines[0], "MTD/Greedy") {
		t.Errorf("header = %q", lines[0])
	}
	// Every data row has the same number of cells as the header.
	want := strings.Count(lines[0], "|")
	for _, l := range lines[2:] {
		if strings.Count(l, "|") != want {
			t.Errorf("row %q has wrong cell count", l)
		}
	}
}

func TestWriteMap(t *testing.T) {
	nw, err := wsn.Generate(rng.New(3), wsn.GenConfig{
		N: 25, Q: 3, Dist: wsn.LinearDist{TauMin: 1, TauMax: 20, Sigma: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	sol := rooted.Tours(metric.Materialize(nw.Space()), nw.DepotIndices(), nw.SensorIndices(), rooted.Options{})
	var buf bytes.Buffer
	if err := WriteMap(&buf, nw, sol.Tours, "map"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") {
		t.Error("not SVG")
	}
	if got := strings.Count(out, "<circle"); got != 25 {
		t.Errorf("sensor markers = %d, want 25", got)
	}
	if got := strings.Count(out, "<polygon"); got != 3 {
		t.Errorf("depot markers = %d, want 3", got)
	}
	if strings.Count(out, "<polyline") == 0 {
		t.Error("no tour polylines")
	}
	if err := WriteMap(&buf, &wsn.Network{}, nil, ""); err == nil {
		t.Error("empty network accepted")
	}
}

func TestWriteTraceSVG(t *testing.T) {
	trace := []sim.TracePoint{
		{Time: 1, MinResidualFrac: 0.8, MeanResidualFrac: 0.9, Charged: 2, RoundCost: 100},
		{Time: 2, MinResidualFrac: 0.5, MeanResidualFrac: 0.8, Charged: 0, RoundCost: 0},
		{Time: 3, MinResidualFrac: 0.7, MeanResidualFrac: 0.85, Charged: 1, RoundCost: 50},
	}
	var buf bytes.Buffer
	if err := WriteTraceSVG(&buf, trace, "health"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || strings.Count(out, "<polyline") != 2 {
		t.Errorf("trace SVG malformed")
	}
	if !strings.Contains(out, "min residual") {
		t.Error("legend missing")
	}
	if err := WriteTraceSVG(&buf, nil, "x"); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestWriteRawCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRawCSV(&buf, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 2 points x 2 algorithms x 2 topologies + header = 9.
	if len(lines) != 9 {
		t.Fatalf("raw CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if lines[0] != "n,topology,algorithm,cost" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestShortLabels(t *testing.T) {
	cases := map[string]string{
		experiment.AlgoMTD:        "MTD",
		experiment.AlgoMTDVar:     "MTDvar",
		experiment.AlgoMTDRefined: "MTD2opt",
		"Greedy":                  "Greedy",
	}
	for in, want := range cases {
		if got := short(in); got != want {
			t.Errorf("short(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteTableMillisColumn(t *testing.T) {
	s := sampleSeries()
	for i := range s.Points {
		s.Points[i].Millis = map[string]float64{experiment.AlgoMTD: 12.5, experiment.AlgoGreedy: 3.5}
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mean ms") || !strings.Contains(buf.String(), "16.0") {
		t.Errorf("millis column missing:\n%s", buf.String())
	}
}

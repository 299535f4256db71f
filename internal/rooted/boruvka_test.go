package rooted

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/metric"
)

// gridAndDense returns a grid-backed and a dense-backed view of the
// same random point set, so the two MSF code paths can be compared on
// bit-identical distances.
func gridAndDense(r *rand.Rand, n int) (*metric.Grid, metric.Dense, []geom.Point) {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return metric.NewGrid(pts), metric.Materialize(metric.NewEuclidean(pts)), pts
}

// TestBoruvkaMatchesPrim is the exactness property of the grid MSF
// path: over random instances with n ≤ 300 and q ≤ 8, the Borůvka
// forest built from the grid index has the same weight as the Prim
// forest from the dense matrix (the optimum is unique in weight), and
// both validate against the same depot/sensor sets. Point coordinates
// are continuous, so the minimum forest is almost surely unique and
// the two parent structures must agree exactly.
func TestBoruvkaMatchesPrim(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, n := range []int{3, 10, 47, 120, 300} {
		for _, q := range []int{1, 2, 5, 8} {
			if q >= n {
				continue
			}
			g, d, _ := gridAndDense(r, n)
			depots, sensors := splitIndices(r, n, q)
			fg := MSF(g, depots, sensors)
			fd := MSF(d, depots, sensors)
			if err := fg.Validate(g, depots, sensors); err != nil {
				t.Fatalf("n=%d q=%d: grid forest invalid: %v", n, q, err)
			}
			if math.Abs(fg.Weight-fd.Weight) > 1e-9*(1+fd.Weight) {
				t.Fatalf("n=%d q=%d: grid weight %.12g != dense weight %.12g", n, q, fg.Weight, fd.Weight)
			}
			for v := range fg.Parent {
				if fg.Parent[v] != fd.Parent[v] {
					t.Fatalf("n=%d q=%d: parent[%d] = %d (grid) vs %d (dense)",
						n, q, v, fg.Parent[v], fd.Parent[v])
				}
			}
		}
	}
}

// TestBoruvkaDeterministic runs the grid MSF twice on the same input
// and requires byte-identical results.
func TestBoruvkaDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	g, _, _ := gridAndDense(r, 200)
	depots, sensors := splitIndices(r, 200, 6)
	a, _ := json.Marshal(MSF(g, depots, sensors))
	b, _ := json.Marshal(MSF(g, depots, sensors))
	if string(a) != string(b) {
		t.Fatal("grid MSF not deterministic across runs")
	}
}

// TestBoruvkaTies exercises the lexicographic (weight, v, u) edge
// tie-breaking on a lattice, where almost every candidate edge has an
// equal-weight twin: the grid forest must still be a valid minimum
// forest of the same weight as the dense Prim forest, and the round
// must pick the same tied edges as the reference round.
func TestBoruvkaTies(t *testing.T) {
	var pts []geom.Point
	for y := 0; y < 9; y++ {
		for x := 0; x < 9; x++ {
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
	}
	g := metric.NewGrid(pts)
	d := metric.Materialize(metric.NewEuclidean(pts))
	r := rand.New(rand.NewSource(23))
	depots, sensors := splitIndices(r, len(pts), 4)
	fg := MSF(g, depots, sensors)
	fd := MSF(d, depots, sensors)
	if err := fg.Validate(g, depots, sensors); err != nil {
		t.Fatalf("lattice grid forest invalid: %v", err)
	}
	if math.Abs(fg.Weight-fd.Weight) > 1e-9*(1+fd.Weight) {
		t.Fatalf("lattice: grid weight %.12g != dense weight %.12g", fg.Weight, fd.Weight)
	}
	for _, w := range []int{1, 2, 8} {
		requireBoruvkaMatchesRef(t, fmt.Sprintf("lattice workers=%d", w), g, depots, sensors, w)
	}
}

// TestGridToursMatchDense checks the full Algorithm-2 pipeline on the
// grid path — MSF, double-tree tours, refinement — against the dense
// path on the same points: identical stop sequences and costs within
// float tolerance.
func TestGridToursMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, refine := range []bool{false, true} {
		g, d, _ := gridAndDense(r, 250)
		depots, sensors := splitIndices(r, 250, 6)
		opt := Options{Refine: refine}
		sg := Tours(g, depots, sensors, opt)
		optD := opt
		optD.Neighbors = d.NearestLists(metric.DefaultNearest)
		sd := Tours(d, depots, sensors, optD)
		if err := sg.Validate(g, depots, sensors); err != nil {
			t.Fatalf("refine=%v: grid solution invalid: %v", refine, err)
		}
		if len(sg.Tours) != len(sd.Tours) {
			t.Fatalf("refine=%v: %d grid tours vs %d dense tours", refine, len(sg.Tours), len(sd.Tours))
		}
		for i := range sg.Tours {
			tg, td := sg.Tours[i], sd.Tours[i]
			if tg.Depot != td.Depot || len(tg.Stops) != len(td.Stops) {
				t.Fatalf("refine=%v tour %d: depot/len mismatch", refine, i)
			}
			for j := range tg.Stops {
				if tg.Stops[j] != td.Stops[j] {
					t.Fatalf("refine=%v tour %d stop %d: %d (grid) vs %d (dense)",
						refine, i, j, tg.Stops[j], td.Stops[j])
				}
			}
			if math.Abs(tg.Cost-td.Cost) > 1e-9*(1+td.Cost) {
				t.Fatalf("refine=%v tour %d: cost %.12g (grid) vs %.12g (dense)",
					refine, i, tg.Cost, td.Cost)
			}
		}
	}
}

// TestParallelToursMatchSerial pins the intra-plan parallelism
// contract: with Workers > 1 the solution must be byte-identical to
// the serial build, on both the grid and dense paths, with refinement
// on. Run under -race this also proves the worker pool is data-race
// free.
func TestParallelToursMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	g, d, _ := gridAndDense(r, 300)
	depots, sensors := splitIndices(r, 300, 8)
	for name, sp := range map[string]metric.Space{"grid": g, "dense": d} {
		opt := Options{Refine: true}
		if dd, ok := metric.AsDense(sp); ok {
			opt.Neighbors = dd.NearestLists(metric.DefaultNearest)
		}
		serial, _ := json.Marshal(Tours(sp, depots, sensors, opt))
		optP := opt
		optP.Workers = 8
		parallel, _ := json.Marshal(Tours(sp, depots, sensors, optP))
		if string(serial) != string(parallel) {
			t.Fatalf("%s: parallel solution differs from serial", name)
		}
	}
}

// msfBoruvkaRef is msfBoruvka's round before the k-NN list pass, kept
// as the oracle the two-pass round must match bit for bit: one
// NearestExcluding query per sensor per round, bounded by the running
// best offer of its component when serial, and, when sharded (workers
// > 1 and m ≥ 2048), by a bound pre-pass built from root offers alone.
// It selects edges into ar.eu/ar.ev and orients them with the
// production orientBoruvka.
func msfBoruvkaRef(g *metric.Grid, sensors []int, ar *roundArena, workers int) graph.Tree {
	m := len(sensors)
	g.SubIndexInto(&ar.gi, sensors)
	gi := &ar.gi
	toRoot := ar.toRoot
	ar.uf.Reset(m + 1)
	uf := &ar.uf
	comp := make([]int32, m)
	bestW := make([]float64, m+1)
	bestV := make([]int32, m+1)
	bestU := make([]int32, m+1)
	var eu, ev []int32
	var weight float64

	parallel := workers > 1 && m >= 2048
	bound := make([]float64, m)
	cMin := make([]float64, m+1)
	nnU := make([]int32, m)
	nnD := make([]float64, m)

	for uf.Sets() > 1 {
		for v := 0; v < m; v++ {
			comp[v] = int32(uf.Find(v))
		}
		rootComp := int32(uf.Find(m))
		for c := 0; c <= m; c++ {
			bestW[c] = math.Inf(1)
		}
		offer := func(c int32, w float64, v, u int32) {
			i := int(c)
			if w < bestW[i] ||
				(w == bestW[i] && (v < bestV[i] || (v == bestV[i] && u < bestU[i]))) { //lint:allow floateq the production round's (weight, v, u) tie-break
				bestW[i], bestV[i], bestU[i] = w, v, u
			}
		}
		if parallel {
			// cMin[c] is the running minimum root offer credited to c by
			// smaller sensors; a sensor's own root offer ties in its favour
			// (u < m), hence the one-ulp bump.
			for c := 0; c <= m; c++ {
				cMin[c] = math.Inf(1)
			}
			for v := 0; v < m; v++ {
				c := comp[v]
				b := cMin[c]
				if c != rootComp {
					if up := math.Nextafter(toRoot[v], math.Inf(1)); up < b {
						b = up
					}
					cMin[c] = math.Min(cMin[c], toRoot[v])
					cMin[rootComp] = math.Min(cMin[rootComp], toRoot[v])
				}
				bound[v] = b
			}
			var wg sync.WaitGroup
			chunk := (m + workers - 1) / workers
			for lo := 0; lo < m; lo += chunk {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					for v := lo; v < hi; v++ {
						u, d := gi.NearestExcluding(v, comp, bound[v])
						nnU[v], nnD[v] = int32(u), d
					}
				}(lo, min(lo+chunk, m))
			}
			wg.Wait()
		}
		for v := 0; v < m; v++ {
			c := comp[v]
			if parallel {
				if u := nnU[v]; u >= 0 {
					offer(c, nnD[v], int32(v), u)
				}
			} else if u, d := gi.NearestExcluding(v, comp, bestW[c]); u >= 0 {
				offer(c, d, int32(v), int32(u))
			}
			if c != rootComp {
				offer(c, toRoot[v], int32(v), int32(m))
				offer(rootComp, toRoot[v], int32(v), int32(m))
			}
		}
		progress := false
		for c := 0; c <= m; c++ {
			if !math.IsInf(bestW[c], 1) && uf.Union(int(bestV[c]), int(bestU[c])) {
				eu = append(eu, bestU[c])
				ev = append(ev, bestV[c])
				weight += bestW[c]
				progress = true
			}
		}
		if !progress {
			panic("reference Borůvka round made no progress")
		}
	}
	ar.eu, ar.ev = eu, ev
	return orientBoruvka(ar, m, weight)
}

// requireBoruvkaMatchesRef runs msfBoruvka and msfBoruvkaRef on the
// depot-contracted space of (depots, sensors) over g, each on a fresh
// arena, and fails unless their parent arrays and weights are
// bit-identical.
func requireBoruvkaMatchesRef(t testing.TB, label string, g *metric.Grid, depots, sensors []int, workers int) {
	t.Helper()
	cs := g.Coords()
	toRoot := make([]float64, len(sensors))
	for i, s := range sensors {
		toRoot[i] = math.Inf(1)
		for _, d := range depots {
			toRoot[i] = math.Min(toRoot[i], cs.Dist(s, d))
		}
	}
	got := msfBoruvka(g, sensors, &roundArena{toRoot: toRoot}, workers)
	want := msfBoruvkaRef(g, sensors, &roundArena{toRoot: toRoot}, workers)
	if math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		t.Fatalf("%s: weight %.17g, reference %.17g", label, got.Weight, want.Weight)
	}
	for v := range want.Parent {
		if got.Parent[v] != want.Parent[v] {
			t.Fatalf("%s: parent[%d] = %d, reference %d", label, v, got.Parent[v], want.Parent[v])
		}
	}
}

// TestBoruvkaMatchesReference pins the two-pass round to the reference
// round, parents and weight bit for bit, at Workers 1, 2 and 8, on
// uniform points (n sensors plus q depots) and on the inputs where ties
// decide the edges: a lattice where every edge ties, points snapped to
// an integer grid so many coincide, collinear points, and Gaussian
// clusters. The larger inputs reach the reference's sharded path and
// the new round's sharded ring pass.
func TestBoruvkaMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	type input struct {
		name string
		pts  []geom.Point
	}
	var inputs []input
	for _, n := range []int{1, 2, 3, 9, 300, 2500, 6000} {
		pts := make([]geom.Point, n+5)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		}
		inputs = append(inputs, input{fmt.Sprintf("uniform n=%d", n), pts})
	}
	var lattice, snapped, line []geom.Point
	for y := 0; y < 70; y++ {
		for x := 0; x < 70; x++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	for i := 0; i < 3000; i++ {
		snapped = append(snapped, geom.Pt(float64(r.Intn(40)), float64(r.Intn(40))))
		x := r.Float64() * 1000
		line = append(line, geom.Pt(x, 0.5*x+3))
	}
	var clusters []geom.Point
	for c := 0; c < 20; c++ {
		cx, cy := r.Float64()*1000, r.Float64()*1000
		for i := 0; i < 250; i++ {
			clusters = append(clusters, geom.Pt(cx+r.NormFloat64()*5, cy+r.NormFloat64()*5))
		}
	}
	inputs = append(inputs, input{"lattice 70x70", lattice}, input{"integer grid 40x40", snapped},
		input{"collinear", line}, input{"clusters 20x250", clusters})
	for _, in := range inputs {
		g := metric.NewGrid(in.pts)
		q := min(5, len(in.pts)-1)
		depots, sensors := splitIndices(r, len(in.pts), q)
		for _, w := range []int{1, 2, 8} {
			requireBoruvkaMatchesRef(t, fmt.Sprintf("%s workers=%d", in.name, w), g, depots, sensors, w)
		}
	}
}

// FuzzBoruvkaMatchesReference decodes points from the fuzz bytes, four
// bytes a point, optionally snapped to an 8×8 integer grid so ties and
// coincident points are common, takes q from 1 to 8 of them as depots,
// and requires the round to match the reference round at Workers 1
// and 2.
func FuzzBoruvkaMatchesReference(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b"), uint8(0), false)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(3), true)
	f.Add(make([]byte, 64), uint8(7), false) // every point coincides
	// A ring-pass sensor whose nearest foreign point ties its own root
	// offer, the component's incumbent: only the one-ulp bound bump
	// lets the sensor edge win that tie, as the reference's does.
	f.Add([]byte("0000000000000000002000200000000010000000000010000000100000000000000000001000"), uint8('$'), true)
	f.Fuzz(func(t *testing.T, data []byte, qRaw uint8, snap bool) {
		var pts []geom.Point
		for ; len(data) >= 4; data = data[4:] {
			x, y := binary.LittleEndian.Uint16(data), binary.LittleEndian.Uint16(data[2:])
			if snap {
				x, y = x%8, y%8
			}
			pts = append(pts, geom.Pt(float64(x), float64(y)))
		}
		q := int(qRaw)%8 + 1
		if len(pts) <= q {
			return
		}
		g := metric.NewGrid(pts)
		depots, sensors := splitIndices(rand.New(rand.NewSource(int64(len(pts)))), len(pts), q)
		for _, w := range []int{1, 2} {
			requireBoruvkaMatchesRef(t, fmt.Sprintf("workers=%d", w), g, depots, sensors, w)
		}
	})
}

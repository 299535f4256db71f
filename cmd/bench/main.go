// Command bench maintains the repository's benchmark baselines.
//
// Capture a baseline from raw `go test -bench` output:
//
//	go test -run '^$' -bench 'Fig|Ablation' -benchtime 3x -count 3 -benchmem . |
//	    go run ./cmd/bench -parse -o BENCH_seed.json
//
// Compare a fresh capture against a committed baseline (exit status 1
// when any benchmark is more than -threshold slower):
//
//	go run ./cmd/bench -compare BENCH_seed.json BENCH_new.json
//
// Run one figure sweep under the profiler (make profile wraps this):
//
//	go run ./cmd/bench -profile fig5 -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
//
// Time one large-n plan end to end and print it as a benchmark line
// (heap footprint included; -maxheap turns it into a memory gate, and
// the CI large-n smoke job runs exactly this under GOMEMLIMIT):
//
//	go run ./cmd/bench -large 10000,20 -maxheap 536870912
//
// scripts/bench.sh wraps the capture and compare steps.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metric"
	"repro/internal/rooted"
)

func main() {
	var (
		parse      = flag.Bool("parse", false, "parse raw go test -bench output from stdin (or -i) into a JSON baseline")
		in         = flag.String("i", "", "input file for -parse (default stdin)")
		out        = flag.String("o", "", "output file for -parse (default stdout)")
		label      = flag.String("label", "", "with -parse: stamp the baseline with this capture label (e.g. pr5)")
		compare    = flag.Bool("compare", false, "compare two baselines: -compare BASE.json CURRENT.json")
		threshold  = flag.Float64("threshold", 0.15, "fractional ns/op growth that counts as a regression")
		heapThresh = flag.Float64("heap-threshold", 0.25, "fractional heap_bytes growth that counts as a regression (rows where both baselines carry a sample)")
		profile    = flag.String("profile", "", "run figure <id> (e.g. 5 or fig5) under the profiler")
		cpuprofile = flag.String("cpuprofile", "", "with -profile: write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "with -profile: write a heap profile to this file")
		reps       = flag.Int("reps", 3, "with -profile: repetitions of the sweep (more samples)")
		topologies = flag.Int("topologies", 10, "with -profile: networks per data point")
		large      = flag.String("large", "", "time one large-n plan: \"N,Q\" (e.g. 50000,20); prints a benchmark line")
		dense      = flag.Bool("dense", false, "with -large: force the dense O(n²) path instead of the auto-selected grid")
		refine     = flag.Bool("refine", false, "with -large: run 2-opt/Or-opt refinement on every tour (the on-grid sweeps at large n)")
		maxheap    = flag.Int64("maxheap", 0, "with -large: exit 1 if the post-plan heap footprint exceeds this many bytes")
	)
	flag.Parse()
	switch {
	case *parse:
		if err := runParse(*in, *out, *label); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	case *large != "":
		over, err := runLarge(*large, *dense, *refine, *maxheap)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if over {
			os.Exit(1)
		}
	case *profile != "":
		if err := runProfile(*profile, *cpuprofile, *memprofile, *reps, *topologies); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs exactly two baseline files")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold, *heapThresh)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runParse(in, out, label string) error {
	var r io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	parsed, err := benchfmt.Parse(r)
	if err != nil {
		return err
	}
	if len(parsed.Results) == 0 {
		return fmt.Errorf("no benchmark lines in input")
	}
	// go test never prints the toolchain version; stamp it here so the
	// committed baseline records its capture environment.
	parsed.Go = runtime.Version()
	parsed.SchemaVersion = benchfmt.SchemaVersion
	parsed.Label = label
	var w io.Writer = os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return benchfmt.Write(w, parsed)
}

func runCompare(basePath, curPath string, threshold, heapThreshold float64) (bool, error) {
	base, err := readBaseline(basePath)
	if err != nil {
		return false, err
	}
	cur, err := readBaseline(curPath)
	if err != nil {
		return false, err
	}
	deltas := benchfmt.Compare(base, cur, threshold, heapThreshold)
	if len(deltas) == 0 {
		return false, fmt.Errorf("baselines %s and %s share no benchmarks", basePath, curPath)
	}
	for _, d := range deltas {
		status := "ok"
		switch {
		case d.NsRegr && d.HeapRegr:
			status = "REGRESSION (ns, heap)"
		case d.NsRegr:
			status = "REGRESSION"
		case d.HeapRegr:
			status = "REGRESSION (heap)"
		}
		line := fmt.Sprintf("%-40s %12.0f -> %12.0f ns/op  %5.2fx",
			d.Name, d.BaseNs, d.CurNs, d.Ratio)
		if d.HeapRatio > 0 {
			line += fmt.Sprintf("  %4d -> %4d heap-MB  %5.2fx",
				int64(d.BaseHeap)>>20, int64(d.CurHeap)>>20, d.HeapRatio)
		}
		fmt.Printf("%s  %s\n", line, status)
	}
	return benchfmt.AnyRegression(deltas), nil
}

// runProfile runs one figure sweep reps times under the requested
// profilers. Workers is pinned to 1 so CPU samples land in the
// planning/refinement code instead of channel scheduling, and the
// sweep's own per-worker scratch arena is exercised the way a
// steady-state capture would see it.
func runProfile(fig, cpuPath, memPath string, reps, topologies int) error {
	id := strings.TrimPrefix(fig, "fig")
	if reps < 1 {
		reps = 1
	}
	cfg := experiment.Config{Topologies: topologies, Workers: 1, Seed: 1, T: 200}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		series, err := experiment.Figure(id, cfg)
		if err != nil {
			return err
		}
		if r == 0 {
			for _, p := range series.Points {
				for _, algo := range series.Algorithms {
					fmt.Fprintf(os.Stderr, "  x=%-8v %-24s total %7.1fms  plan %7.1fms  refine %7.1fms\n",
						p.X, algo, p.Millis[algo], p.PlanMillis[algo], p.RefineMillis[algo])
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "bench: profiled fig%s x%d in %s\n", id, reps, time.Since(start).Round(time.Millisecond))
	if memPath != "" {
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // flush recently freed objects out of the heap profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// runLarge times one end-to-end PlanFixed call on a freshly generated
// large topology and prints it in benchmark-line format, so the output
// pipes straight into -parse alongside `go test -bench` captures:
//
//	BenchmarkLargeN/n=50000/q=20/path=grid 1 <ns> ns/op <bytes> heap-bytes
//
// heap-bytes is runtime.MemStats.HeapSys right after the plan — the
// heap footprint the process actually reached, the number the large-n
// "peak well below O(n²)" budget is enforced on (non-zero -maxheap
// returns over=true when exceeded; the caller exits 1). -dense forces
// the quadratic dense path for paired speedup measurements; it refuses
// n > 20000, where the matrix alone would pass 3 GB.
func runLarge(spec string, dense, refine bool, maxheap int64) (over bool, err error) {
	nStr, qStr, ok := strings.Cut(spec, ",")
	if !ok {
		return false, fmt.Errorf("-large wants \"N,Q\", got %q", spec)
	}
	n, err := strconv.Atoi(strings.TrimSpace(nStr))
	if err != nil {
		return false, fmt.Errorf("-large N: %v", err)
	}
	q, err := strconv.Atoi(strings.TrimSpace(qStr))
	if err != nil {
		return false, fmt.Errorf("-large Q: %v", err)
	}
	if n < 1 || q < 1 {
		return false, fmt.Errorf("-large wants positive N,Q, got %d,%d", n, q)
	}
	if dense && n > 20000 {
		return false, fmt.Errorf("-dense at n=%d needs an %d MB matrix; refusing", n, 8*n*n>>20)
	}
	p := experiment.Params{
		N: n, Q: q, TauMin: 1, TauMax: 20,
		DistName: "random", T: 40, Seed: 1,
	}
	net, err := p.Network()
	if err != nil {
		return false, err
	}
	opt := core.FixedOptions{Rooted: rooted.Options{Workers: runtime.GOMAXPROCS(0), Refine: refine}}
	path := "grid"
	if dense {
		path = "dense"
		opt.Space = metric.Materialize(net.Space())
	}
	if refine {
		path += "+refine"
	}
	start := time.Now()
	plan, err := core.PlanFixed(net, p.T, opt)
	elapsed := time.Since(start)
	if err != nil {
		return false, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := int64(ms.HeapSys)
	fmt.Printf("BenchmarkLargeN/n=%d/q=%d/path=%s 1 %d ns/op %d heap-bytes\n",
		n, q, path, elapsed.Nanoseconds(), heap)
	fmt.Fprintf(os.Stderr, "bench: large plan n=%d q=%d path=%s: cost %.0f, %d dispatches, %s, heap %d MB\n",
		n, q, path, plan.Cost(), plan.Schedule.Dispatches(), elapsed.Round(time.Millisecond), heap>>20)
	if maxheap > 0 && heap > maxheap {
		fmt.Fprintf(os.Stderr, "bench: heap footprint %d bytes exceeds -maxheap %d\n", heap, maxheap)
		return true, nil
	}
	return false, nil
}

func readBaseline(path string) (benchfmt.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchfmt.File{}, err
	}
	defer f.Close()
	return benchfmt.ReadFile(f)
}

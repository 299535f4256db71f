// Package lint is the repo-specific static-analysis suite guarding the
// conventions every hot path now depends on but the compiler cannot
// enforce:
//
//   - Determinism. Figure sweeps must be bit-identical across worker
//     counts and machines. That forbids wall-clock reads and the global
//     math/rand source inside algorithm packages, exact float equality
//     (which turns representation noise into control-flow divergence),
//     and map-iteration order leaking into outputs.
//   - Feasibility-preserving performance. internal/tsp, internal/rooted
//     and internal/core mandate the metric.Dense row fast path; calling
//     the metric.Space.Dist interface inside a loop there reintroduces
//     the per-distance dispatch PR 1 removed.
//   - Concurrency safety. The serving/streaming layers (internal/serve,
//     internal/delta, internal/obs, the cmd daemons) rely on goroutines
//     tied to lifecycles (goroleak), critical sections free of channel
//     ops and blocking calls (lockheld), fields never mixing atomic and
//     plain access (atomicmix), and request contexts threaded instead of
//     forked (ctxflow) — the invariant classes `go vet` has no opinion
//     on and the race detector only sees on lucky schedules.
//   - Allocation discipline. The arena-backed packages (internal/tsp,
//     internal/rooted, internal/metric, internal/delta) must not allocate
//     per loop iteration (hotalloc); churn there only shows up as GC
//     pressure at n=1M, long after review.
//
// The suite is stdlib-only (go/ast + go/parser + go/types; no analysis
// framework dependency) and is driven by cmd/lint, which fails on any
// finding. Intentional exceptions are annotated in the source:
//
//	//lint:allow <check> <reason>
//
// A trailing comment suppresses its own line; a comment on a line of its
// own also suppresses the line below; an allow directive inside a
// function's doc comment suppresses the whole function. Reasons are
// mandatory by convention — an allow without one should not survive
// review.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a package's compiled files
// plus its in-package test files (external _test packages are separate
// units with an import path suffixed "_test").
type Package struct {
	// Path is the import path of the unit.
	Path string
	// Fset positions all Files.
	Fset *token.FileSet
	// Files is the unit's syntax, in deterministic (file-name) order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the unit's type information (Types, Defs, Uses,
	// Selections are populated).
	Info *types.Info
}

// Finding is one analyzer hit.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Analyzer is one lint pass over a type-checked package.
type Analyzer struct {
	// Name is the check name used in findings and //lint:allow
	// directives.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Scope limits the analyzer to packages whose import path equals an
	// entry or starts with entry+"/". nil means every package.
	Scope []string
	// Exclude removes packages (same matching rule) from the scope.
	Exclude []string
	// Tests also analyzes _test.go files; by default they are skipped.
	Tests bool

	run func(a *Analyzer, p *Package) []Finding
}

// Applies reports whether the analyzer covers the package path.
// Packages under a testdata directory always apply: "./..." expansion
// never reaches them, so they are only ever loaded explicitly — by the
// fixture tests and by cmd/lint invocations that must reproduce a
// finding regardless of the production scopes.
func (a *Analyzer) Applies(path string) bool {
	if isTestdataPath(path) {
		return true
	}
	if matchesAny(path, a.Exclude) {
		return false
	}
	return a.Scope == nil || matchesAny(path, a.Scope)
}

// isTestdataPath reports whether the import path lies under a testdata
// directory (lint fixtures).
func isTestdataPath(path string) bool { return strings.Contains(path, "/testdata/") }

func matchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// files yields the analyzer's file set for p, honouring Tests.
func (a *Analyzer) files(p *Package) []*ast.File {
	if a.Tests {
		return p.Files
	}
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// RunWithPolicy is Run with package-level grants applied: a package the
// policy exempts from a check is skipped for that check entirely,
// before per-line //lint:allow processing. A nil policy grants nothing.
func RunWithPolicy(pkgs []*Package, analyzers []*Analyzer, policy *PackagePolicy) []Finding {
	var out []Finding
	for _, p := range pkgs {
		var idx *allowIndex
		for _, a := range analyzers {
			if !a.Applies(p.Path) || policy.Allows(a.Name, p.Path) {
				continue
			}
			fs := a.run(a, p)
			if len(fs) == 0 {
				continue
			}
			if idx == nil {
				idx = buildAllowIndex(p)
			}
			for _, f := range fs {
				if !idx.allowed(f.Pos, f.Check) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// Analyzers returns the default suite with the repo's production scopes.
// Tests may reconfigure Scope/Exclude/Tests on the returned values.
func Analyzers() []*Analyzer {
	// Algorithm packages: everything that must stay deterministic and
	// replayable. Harness-side packages (cmd/*, benchfmt, plot, persist,
	// lint itself) may read the clock and print maps freely.
	algo := []string{
		"repro/internal/core",
		"repro/internal/delta",
		"repro/internal/disturb",
		"repro/internal/energy",
		"repro/internal/experiment",
		"repro/internal/geom",
		"repro/internal/graph",
		"repro/internal/metric",
		"repro/internal/rng",
		"repro/internal/rooted",
		"repro/internal/sched",
		"repro/internal/sim",
		"repro/internal/stats",
		"repro/internal/tsp",
		"repro/internal/wsn",
	}
	// Serving packages: walltime nominally covers them so the exemption
	// is an explicit DefaultPolicy grant rather than a silent scope gap.
	serving := []string{
		"repro/internal/serve",
		"repro/internal/obs",
		"repro/cmd/chargerd",
		"repro/cmd/loadgen",
	}
	hot := []string{
		"repro/internal/core",
		"repro/internal/delta",
		"repro/internal/metric",
		"repro/internal/rooted",
		"repro/internal/tsp",
	}
	// Concurrent layers: the packages whose goroutines, locks and
	// contexts the PR 4-7 serving/streaming stack depends on.
	conc := []string{
		"repro/internal/serve",
		"repro/internal/delta",
		"repro/internal/obs",
		"repro/cmd",
	}
	// Arena-disciplined scopes: the hot algorithm packages whose loops
	// must allocate through Scratch/arena types (hotalloc); unlike `hot`
	// this excludes internal/core, whose per-round driver loops are
	// round-scoped, not per-sensor. internal/sim joined when the
	// disturbed runner went event-driven: its epoch loop now reuses one
	// sim.Scratch across Monte-Carlo replications, so a stray per-epoch
	// allocation would silently undo the arena.
	arena := []string{
		"repro/internal/delta",
		"repro/internal/metric",
		"repro/internal/rooted",
		"repro/internal/sim",
		"repro/internal/tsp",
	}
	return []*Analyzer{
		{
			Name: "walltime",
			Doc:  "no wall-clock reads (time.Now/Since/Until) in algorithm packages",
			// cmd/robust rides along: its artifacts must be byte-stable
			// for identical seeds, so no wall clock there either.
			Scope: append(append([]string{"repro/cmd/robust"}, algo...), serving...),
			run:   runWalltime,
		},
		{
			Name:    "globalrand",
			Doc:     "no global math/rand source outside internal/rng (use rng.Source streams)",
			Exclude: []string{"repro/internal/rng"},
			run:     runGlobalRand,
		},
		{
			Name:  "floateq",
			Doc:   "no ==/!= on floats (tolerance or annotated sentinel instead)",
			Tests: true,
			run:   runFloatEq,
		},
		{
			Name:  "maporder",
			Doc:   "no map iteration feeding slices, floats or output without a following sort",
			Scope: algo,
			run:   runMapOrder,
		},
		{
			Name:  "hotdist",
			Doc:   "no metric.Space.Dist calls through the interface or a type parameter inside loops in hot packages",
			Scope: hot,
			run:   runHotDist,
		},
		{
			Name:  "goroleak",
			Doc:   "no fire-and-forget goroutines: every go statement ties to a WaitGroup, stop channel or ctx",
			Scope: conc,
			run:   runGoroleak,
		},
		{
			Name: "lockheld",
			Doc:  "no channel ops, Submit or blocking I/O with a mutex held; no return missing its unlock",
			run:  runLockheld,
		},
		{
			Name: "atomicmix",
			Doc:  "a field accessed via sync/atomic anywhere is never read or written plainly elsewhere",
			run:  runAtomicmix,
		},
		{
			Name:  "ctxflow",
			Doc:   "no context.Background/TODO under an in-scope request ctx; ctx params must be threaded",
			Scope: conc,
			run:   runCtxflow,
		},
		{
			Name:  "hotalloc",
			Doc:   "no make/new/literal/fmt allocations inside loops in arena-disciplined hot packages",
			Scope: arena,
			run:   runHotalloc,
		},
	}
}

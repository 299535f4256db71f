package repro

import (
	"go/ast"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// exportAllowlist names the exported package-level identifiers of
// internal/ that no non-test file references but that stay exported
// because test files of more than one package, or perfbench's tests,
// need them. Keys are "import/path.Name"; values say who needs it.
var exportAllowlist = map[string]string{
	"repro/internal/metric.NewMatrix":          "non-Euclidean fixture of the graph, metric and rooted tests",
	"repro/internal/metric.Closure":            "shortest-path closure of the graph, metric and rooted tests' Matrix fixtures",
	"repro/internal/experiment.RunOne":         "perfbench/perfbench_test.go checks its workloads against it",
	"repro/internal/experiment.FigureParams":   "the root bench_test.go builds its figure cells from it",
	"repro/internal/sim.RunDisturbedReference": "cmd/robust's equivalence test compares the event runner with it",
}

// TestInternalExportsReached fails on any exported package-level func,
// type, var or const declared in a non-test file under internal/ that
// no non-test file of the module references outside its own
// declaration. cmd/, examples/, repro.go and perfbench/ count as users;
// test files do not, so code only tests reach moves into those tests
// or goes. Methods are not checked. It also fails on allowlist entries
// that are reached after all or no longer declared.
func TestInternalExportsReached(t *testing.T) {
	l, err := lint.NewLoader(".", nil)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	internal := l.Module() + "/internal/"

	// The loader type-checks each unit on its own, so one declaration
	// appears as distinct objects in the units that import it. Key
	// objects by package path and name instead of identity; keep the
	// whole declaration to skip references from inside it.
	decls := map[string]ast.Decl{}
	used := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, internal) {
			continue
		}
		for _, f := range p.Files {
			if strings.HasSuffix(p.Fset.File(f.Pos()).Name(), "_test.go") {
				continue
			}
			for _, d := range f.Decls {
				for _, id := range declaredNames(d) {
					if id.IsExported() {
						decls[p.Path+"."+id.Name] = d
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
				continue // not package-level (methods, fields, locals)
			}
			if strings.HasSuffix(p.Fset.File(id.Pos()).Name(), "_test.go") {
				continue
			}
			key := obj.Pkg().Path() + "." + obj.Name()
			if d, ok := decls[key]; ok && id.Pos() >= d.Pos() && id.Pos() < d.End() {
				continue
			}
			used[key] = true
		}
	}

	var unreached, stale []string
	for key := range decls {
		_, allowed := exportAllowlist[key]
		if !used[key] && !allowed {
			unreached = append(unreached, key)
		}
	}
	for key := range exportAllowlist {
		if _, ok := decls[key]; !ok || used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	for _, key := range unreached {
		t.Errorf("%s: exported but no non-test code references it; move it into the test that uses it, delete it, or allowlist it with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("%s: stale allowlist entry (reached by non-test code, or no longer declared)", key)
	}
}

// declaredNames returns the package-level names a declaration
// introduces; methods introduce none.
func declaredNames(d ast.Decl) []*ast.Ident {
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return []*ast.Ident{d.Name}
		}
	case *ast.GenDecl:
		var ids []*ast.Ident
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
		return ids
	}
	return nil
}

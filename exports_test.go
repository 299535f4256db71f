package repro

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// exportAllowlist names the exported package-level identifiers and
// methods of internal/ that no non-test file reaches but that stay
// exported because test files of more than one package, or perfbench's
// tests, need them. Keys are "import/path.Name" or
// "import/path.Type.Method"; values say who needs it.
var exportAllowlist = map[string]string{
	"repro/internal/metric.NewMatrix":          "non-Euclidean fixture of the graph, metric and rooted tests",
	"repro/internal/metric.Closure":            "shortest-path closure of the graph, metric and rooted tests' Matrix fixtures",
	"repro/internal/experiment.RunOne":         "perfbench/perfbench_test.go checks its workloads against it",
	"repro/internal/experiment.FigureParams":   "the root bench_test.go builds its figure cells from it",
	"repro/internal/sim.RunDisturbedReference": "cmd/robust's equivalence test compares the event runner with it",
	"repro/internal/geom.Rect.Diagonal":        "the root facade_test.go bounds tour lengths by the field diagonal",
	"repro/internal/metric.Grid.SubIndex":      "internal/tsp's gridopt_test.go builds tour-local indexes with it",
	"repro/internal/obs.CounterVec.Value":      "internal/serve's tests read request and delta outcome counts",
	"repro/internal/wsn.Sensor.Rate":           "the energy and sim tests compare model rates with ρ_i = B_i/τ_i",
}

// TestInternalExportsReached fails on any exported package-level func,
// type, var or const declared in a non-test file under internal/ that
// no non-test file of the module references outside its own
// declaration. cmd/, examples/, repro.go and perfbench/ count as users;
// test files do not, so code only tests reach moves into those tests
// or goes. Exported methods are held to the same rule, with one more
// way to be reached: their type implements an interface that declares
// them (see reachedByInterface). It also fails on allowlist entries
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

	// The loader type-checks each unit on its own, so one declaration
	// appears as distinct objects in the units that import it. Key
	// objects by package path and name instead of identity; keep the
	// whole declaration to skip references from inside it.
	decls := map[string]ast.Decl{}
	methods := map[string]method{}
	used := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "repro/internal/") {
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
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() {
					m := method{path: p.Path, typ: recvTypeName(fd.Recv.List[0].Type), name: fd.Name.Name}
					decls[m.key()] = d
					methods[m.key()] = m
				}
			}
		}
	}
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			key := objectKey(obj)
			if key == "" || strings.HasSuffix(p.Fset.File(id.Pos()).Name(), "_test.go") {
				continue
			}
			if d, ok := decls[key]; ok && id.Pos() >= d.Pos() && id.Pos() < d.End() {
				continue
			}
			used[key] = true
		}
	}
	for key := range methods {
		if used[key] {
			delete(methods, key)
		}
	}
	for key := range reachedByInterface(pkgs, methods) {
		used[key] = true
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

// method is an exported method declared under internal/.
type method struct{ path, typ, name string }

func (m method) key() string { return m.path + "." + m.typ + "." + m.name }

// objectKey returns the decls key of a used object: "path.Name" for a
// package-level object, "path.Type.Method" for a method of a named
// non-interface type, "" for anything else (fields, locals, interface
// methods).
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Origin().Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return method{obj.Pkg().Path(), named.Obj().Name(), obj.Name()}.key()
}

// reachedByInterface returns the keys of the methods whose type, or a
// pointer to it, implements an interface that declares the method, so
// code may call it through the interface alone. The interfaces are the
// named ones declared outside test files in a loaded package or in
// anything it imports, the predeclared error, and — for Unwrap on an
// error type — the one errors.Is and errors.As assert. The check runs
// once per loaded unit, over the packages that unit sees, so a type and
// an interface are compared within one type-checked universe.
func reachedByInterface(pkgs []*lint.Package, methods map[string]method) map[string]bool {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	reached := map[string]bool{}
	for _, p := range pkgs {
		seen := map[string]*types.Package{}
		var visit func(*types.Package)
		visit = func(tp *types.Package) {
			if _, ok := seen[tp.Path()]; ok {
				return
			}
			seen[tp.Path()] = tp
			for _, imp := range tp.Imports() {
				visit(imp)
			}
		}
		visit(p.Types)

		ifaces := map[string][]*types.Interface{} // by method name
		for _, tp := range seen {
			for _, name := range tp.Scope().Names() {
				tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() || strings.HasSuffix(p.Fset.Position(tn.Pos()).Filename, "_test.go") {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 {
					continue
				}
				iface, ok := named.Underlying().(*types.Interface)
				if !ok || !iface.IsMethodSet() {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					ifaces[iface.Method(i).Name()] = append(ifaces[iface.Method(i).Name()], iface)
				}
			}
		}

		for key, m := range methods {
			tp := seen[m.path]
			if reached[key] || tp == nil {
				continue
			}
			tn, ok := tp.Scope().Lookup(m.typ).(*types.TypeName)
			if !ok || tn.Type().(*types.Named).TypeParams().Len() > 0 {
				continue
			}
			cands := ifaces[m.name]
			if m.name == "Error" || m.name == "Unwrap" {
				cands = append(cands, errType)
			}
			for _, iface := range cands {
				if types.Implements(tn.Type(), iface) || types.Implements(types.NewPointer(tn.Type()), iface) {
					reached[key] = true
					break
				}
			}
		}
	}
	return reached
}

// recvTypeName returns the type name of a method receiver expression:
// T, *T, T[P] or *T[P].
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	case *ast.ParenExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
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

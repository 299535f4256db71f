package lint

import (
	"go/ast"
	"go/types"
)

// runHotDist flags calls of the form sp.Dist(i, j) — where sp's static
// type is the metric.Space interface, or a type parameter constrained by
// it — inside a for/range loop in the hot packages (internal/tsp,
// internal/rooted, internal/core). PR 1 mandated the metric.Dense row
// fast path there: an interface call per distance costs dynamic dispatch
// and defeats bounds-check elimination on what profiling showed to be
// the dominant inner loops. A method call on a type parameter pays the
// same: it goes through the instantiation's dictionary, so a
// [S metric.Space] body instantiated with Dense does not inline
// Dense.Dist either. Legitimate exceptions — non-Dense fallbacks and
// code off the hot path — carry //lint:allow hotdist annotations.
func runHotDist(a *Analyzer, p *Package) []Finding {
	var out []Finding
	for _, f := range a.files(p) {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok || !inLoop(stack) || !isSpaceDistCall(p, call) {
				return true
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(call.Pos()),
				Check: a.Name,
				Msg: "metric.Space.Dist call (interface or type-parameter dispatch) inside a loop in a hot package; " +
					"use metric.AsDense + Row (see internal/tsp/candidates.go), or mark the " +
					"non-Dense fallback with //lint:allow hotdist <reason>",
			})
			return true
		})
	}
	return out
}

// inLoop reports whether the innermost enclosing function of the node on
// top of the stack contains an enclosing for/range statement. A func
// literal is a boundary: a closure defined inside a loop runs per call,
// not per iteration.
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// isSpaceDistCall reports whether call is a Dist method call whose
// receiver's static type is the repro/internal/metric.Space interface or
// a type parameter whose constraint is or embeds it.
func isSpaceDistCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Dist" {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	if tp, ok := s.Recv().(*types.TypeParam); ok {
		return constrainedBySpace(tp.Constraint())
	}
	return isSpace(s.Recv())
}

// isSpace reports whether t is the repro/internal/metric.Space interface.
func isSpace(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Space" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "repro/internal/metric"
}

// constrainedBySpace reports whether a type-parameter constraint is
// metric.Space or an interface embedding it, at any depth.
func constrainedBySpace(t types.Type) bool {
	if isSpace(t) {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		if constrainedBySpace(iface.EmbeddedType(i)) {
			return true
		}
	}
	return false
}

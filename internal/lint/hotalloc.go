package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runHotalloc flags per-iteration heap allocation inside loops in the
// hot algorithm packages (internal/tsp, internal/rooted, internal/metric,
// internal/delta): make and new calls, slice/map composite literals,
// and fmt string formatting. PRs 1-6 drove allocation churn down ~3x by
// routing every per-iteration buffer through the Scratch/arena types;
// this check keeps new code from quietly reintroducing it, because a
// single make inside a refinement sweep multiplies by the iteration
// count and shows up as GC pressure only at n=1M, long after review.
//
// Arena plumbing itself is exempt: methods on *Scratch/*...Arena types
// and grow*/ensure* helpers exist to allocate (once, at the watermark).
// Everything else intentional — genuinely cold paths inside hot
// packages — carries //lint:allow hotalloc with the reason; an error or
// panic message built in a loop moves into a cold constructor function
// instead.
func runHotalloc(a *Analyzer, p *Package) []Finding {
	var out []Finding
	for _, f := range a.files(p) {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			msg := allocKind(p, n)
			if msg == "" || !inLoop(stack) || inArenaFunc(stack) {
				return true
			}
			out = append(out, Finding{
				Pos:   p.Fset.Position(n.Pos()),
				Check: a.Name,
				Msg: msg + " inside a loop in a hot package; reuse a Scratch/arena buffer " +
					"(hoist the allocation to the watermark) or annotate //lint:allow hotalloc <reason>",
			})
			return true
		})
	}
	return out
}

// allocKind classifies n as a flagged allocation form, or "" if it is
// none.
func allocKind(p *Package, n ast.Node) string {
	switch n := n.(type) {
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := p.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "new") {
				return b.Name() + " allocation"
			}
		}
		if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				return "fmt." + fn.Name() + " (string building + interface boxing)"
			}
		}
	case *ast.CompositeLit:
		t := p.Info.Types[ast.Expr(n)].Type
		if t == nil {
			return ""
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			return "slice-literal allocation"
		case *types.Map:
			return "map-literal allocation"
		}
	}
	return ""
}

// inArenaFunc reports whether the innermost enclosing function is arena
// plumbing: a method on a *Scratch/*Arena type, or a grow*/ensure*
// helper — the places whose job is to allocate.
func inArenaFunc(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return false
		case *ast.FuncDecl:
			name := fn.Name.Name
			if strings.HasPrefix(name, "grow") || strings.HasPrefix(name, "ensure") {
				return true
			}
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				recv := recvTypeName(fn.Recv.List[0].Type)
				if strings.Contains(recv, "Scratch") || strings.Contains(strings.ToLower(recv), "arena") {
					return true
				}
			}
			return false
		}
	}
	return false
}

// recvTypeName extracts the bare receiver type name from a receiver
// field type expression (unwrapping pointers and generic instantiation).
func recvTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvTypeName(e.X)
	case *ast.IndexListExpr:
		return recvTypeName(e.X)
	}
	return ""
}

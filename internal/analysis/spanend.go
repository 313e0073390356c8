package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Spanend enforces the obs span lifetime rule: every span returned by
// obs.Observer.Start must reach an End() call, either chained on the
// Start expression itself (usually under defer) or invoked later on the
// variable the span was assigned to. An unended span is silently
// swallowed by its parent's End — the runtime now counts those as
// obs.span_leak and warns, but the leak is still a bug; this check
// turns it into a build break.
var Spanend = &Analyzer{
	Name: "spanend",
	Doc: "require an End() for every span returned by obs.Observer.Start\n\n" +
		"Spans form the timing tree behind RunReports, the journal's stage\n" +
		"stats, and the Perfetto trace export; a span that is never ended\n" +
		"reports zero wall time and is popped unclosed when its parent ends\n" +
		"(counted as obs.span_leak at runtime). Flags Start calls whose\n" +
		"result is discarded, deferred, or assigned to a variable without any\n" +
		"reachable End() on that variable. Spans that escape the function\n" +
		"(returned, passed as an argument, stored in a struct) are assumed\n" +
		"ended by their new owner.",
	Run: runSpanend,
}

// isObsNamed reports whether t is (a pointer to) the named type from
// the repo's internal/obs package. Matching on the path suffix keeps
// the analyzer usable from golden-test fixtures, which import the real
// package.
func isObsNamed(t types.Type, name string) bool {
	n := namedBase(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/obs") && obj.Name() == name
}

// isObsStartCall reports whether call invokes obs.Observer.Start.
func isObsStartCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Start" {
		return false
	}
	return isObsNamed(p.TypeOf(sel.X), "Observer")
}

// climbChain follows a method chain upward from expr (stack[top] must
// be expr): while the parent is a SelectorExpr on expr that is itself
// invoked, the chain extends. It returns the outermost chain index in
// stack, and whether any chained method is End. obs.Span methods return
// the span, so `o.Start("x").Attr("k", v).End()` is one chain.
func climbChain(stack []ast.Node, top int) (outer int, endsInEnd bool) {
	outer = top
	cur := stack[top]
	for j := top - 1; j >= 1; j -= 2 {
		sel, ok := stack[j].(*ast.SelectorExpr)
		if !ok || sel.X != cur {
			break
		}
		pc, ok := stack[j-1].(*ast.CallExpr)
		if !ok || pc.Fun != sel {
			break
		}
		if sel.Sel.Name == "End" {
			endsInEnd = true
		}
		cur = pc
		outer = j - 1
	}
	return outer, endsInEnd
}

// startSite is one Start call whose span was bound to a variable and
// therefore needs an End() reachable through that variable.
type startSite struct {
	call *ast.CallExpr
	obj  types.Object
}

func runSpanend(p *Pass) {
	var sites []startSite
	ended := map[types.Object]bool{}
	var stack []ast.Node
	p.inspect(func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		top := len(stack) - 1
		switch n := n.(type) {
		case *ast.CallExpr:
			if !isObsStartCall(p, n) {
				return true
			}
			outer, endsInEnd := climbChain(stack, top)
			if endsInEnd {
				return true
			}
			var parent ast.Node
			if outer > 0 {
				parent = stack[outer-1]
			}
			chain := stack[outer]
			switch parent := parent.(type) {
			case *ast.AssignStmt:
				if obj := assignedObject(p, parent, chain); obj != nil {
					sites = append(sites, startSite{call: n, obj: obj})
				} else {
					// `_ = o.Start(...)` or a non-identifier target; the
					// blank case drops the span, the field case escapes.
					if isBlankTarget(parent, chain) {
						p.Reportf(n.Pos(), "span from obs.Start is discarded without End(); it will leak when its parent ends")
					}
				}
			case *ast.ValueSpec:
				if obj := specObject(p, parent, chain); obj != nil {
					sites = append(sites, startSite{call: n, obj: obj})
				}
			case *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt:
				p.Reportf(n.Pos(), "span from obs.Start is discarded without End(); it will leak when its parent ends")
			default:
				// Returned, passed as an argument, stored in a composite:
				// the span escapes and its new owner is responsible.
			}
		case *ast.Ident:
			obj := p.Info.Uses[n]
			if obj == nil || !isObsNamed(obj.Type(), "Span") {
				return true
			}
			if _, e := climbChain(stack, top); e {
				ended[obj] = true
			}
		}
		return true
	})
	for _, s := range sites {
		if !ended[s.obj] {
			p.Reportf(s.call.Pos(),
				"span assigned to %s has no End() call; every obs.Start needs a reachable End", s.obj.Name())
		}
	}
}

// assignedObject returns the variable object that chain is assigned to
// in stmt, for identifier (non-blank) targets only.
func assignedObject(p *Pass, stmt *ast.AssignStmt, chain ast.Node) types.Object {
	for i, rhs := range stmt.Rhs {
		if rhs != chain || i >= len(stmt.Lhs) {
			continue
		}
		id, ok := stmt.Lhs[i].(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj
		}
		return p.Info.Uses[id]
	}
	return nil
}

// isBlankTarget reports whether chain is assigned to the blank
// identifier in stmt.
func isBlankTarget(stmt *ast.AssignStmt, chain ast.Node) bool {
	for i, rhs := range stmt.Rhs {
		if rhs != chain || i >= len(stmt.Lhs) {
			continue
		}
		id, ok := stmt.Lhs[i].(*ast.Ident)
		return ok && id.Name == "_"
	}
	return false
}

// specObject returns the variable object chain initializes in a `var`
// declaration.
func specObject(p *Pass, spec *ast.ValueSpec, chain ast.Node) types.Object {
	for i, v := range spec.Values {
		if v != chain || i >= len(spec.Names) {
			continue
		}
		if spec.Names[i].Name == "_" {
			return nil
		}
		return p.Info.Defs[spec.Names[i]]
	}
	return nil
}

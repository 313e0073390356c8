package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// mathDomainFuncs are the math functions whose arguments must be
// domain-checked: outside their domain they return NaN or ±Inf without
// any error, and in the measures package that silent NaN flows straight
// into the IGub/Frub curves that pick θ* (Eq. 8) — corrupting min_sup
// selection with no visible failure.
var mathDomainFuncs = map[string]string{
	"Log":   "x > 0",
	"Log2":  "x > 0",
	"Log10": "x > 0",
	"Log1p": "x > -1",
	"Sqrt":  "x >= 0",
}

// Mathrange requires every math.Log*/math.Sqrt call in measures to be
// preceded, within the same function, by a comparison involving the
// argument expression (the domain check), unless the argument is a
// constant inside the domain or a math.Abs call.
var Mathrange = &Analyzer{
	Name: "mathrange",
	Doc: "require domain checks before math.Log*/math.Sqrt in measures\n\n" +
		"math.Log of a non-positive value (or Sqrt of a negative one) yields\n" +
		"NaN/-Inf silently; in the bound math a NaN poisons IGub/Frub and the\n" +
		"Eq. 8 min_sup scan without failing anything. Each such call must be\n" +
		"preceded, in the enclosing function, by a comparison mentioning one\n" +
		"of the argument's variables (an in-domain constant or math.Abs\n" +
		"argument also passes).",
	Packages: []string{"measures"},
	Run:      runMathrange,
}

func runMathrange(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMathCalls(p, fd)
		}
	}
}

func checkMathCalls(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		fn := calleeFunc(p.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
			return true
		}
		domain, watched := mathDomainFuncs[fn.Name()]
		if !watched {
			return true
		}
		arg := ast.Unparen(call.Args[0])
		if argInDomain(p, fn.Name(), arg) || hasDomainCheckBefore(p, fd, arg, call) {
			return true
		}
		p.Reportf(call.Pos(),
			"math.%s(%s) has no preceding domain check (%s) in %s; out-of-domain arguments yield a silent NaN that corrupts the bound math",
			fn.Name(), exprText(arg), domain, fd.Name.Name)
		return true
	})
}

// argInDomain reports whether the argument is safe by construction: an
// in-domain constant, or a math.Abs(...) result for Sqrt.
func argInDomain(p *Pass, fn string, arg ast.Expr) bool {
	if v := constValue(p.Info, arg); v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) {
		switch fn {
		case "Sqrt":
			return constant.Sign(v) >= 0
		case "Log1p":
			f, _ := constant.Float64Val(v)
			return f > -1
		default:
			return constant.Sign(v) > 0
		}
	}
	if fn == "Sqrt" {
		if inner, ok := arg.(*ast.CallExpr); ok {
			if isPkgFunc(calleeFunc(p.Info, inner), "math", "Abs") {
				return true
			}
		}
	}
	return false
}

// hasDomainCheckBefore reports whether fd contains, before the call, a
// comparison mentioning any of the variables the argument is computed
// from (so `if p <= 0 || p >= 1 { return 0 }` blesses both Log2(p) and
// Log2(1-p)). This is a syntactic approximation of dominance: a check
// in a dead branch fools it, but it cannot miss-flag the repo's idiom —
// guard clauses at function entry — and the golden fixtures pin both
// directions.
func hasDomainCheckBefore(p *Pass, fd *ast.FuncDecl, arg ast.Expr, call *ast.CallExpr) bool {
	names := valueIdentNames(p, arg)
	if len(names) == 0 {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok || !isComparison(cmp.Op) || cmp.Pos() >= call.Pos() {
			return true
		}
		if mentionsAny(p, cmp, names) {
			found = true
			return false
		}
		return true
	})
	return found
}

// valueIdentNames collects the names of value identifiers (variables
// and constants, not packages or functions) appearing in e.
func valueIdentNames(p *Pass, e ast.Expr) map[string]bool {
	names := map[string]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch p.Info.ObjectOf(id).(type) {
			case *types.Var, *types.Const:
				names[id.Name] = true
			}
		}
		return true
	})
	return names
}

// mentionsAny reports whether any value identifier under n has one of
// the given names.
func mentionsAny(p *Pass, root ast.Node, names map[string]bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && names[id.Name] {
			switch p.Info.ObjectOf(id).(type) {
			case *types.Var, *types.Const:
				found = true
			}
		}
		return !found
	})
	return found
}

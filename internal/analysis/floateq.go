package analysis

import (
	"go/ast"
	"go/token"
)

// Floateq bans exact floating-point equality in the packages whose
// float arithmetic decides classifier behavior: measures (the Eq. 2–6
// bound math that picks min_sup via Eq. 8), svm (SMO's KKT updates),
// and eval (accuracy/significance statistics). A == that holds on one
// platform's FMA contraction and fails on another is exactly the bug
// class that silently shifts θ* and every accuracy number downstream.
var Floateq = &Analyzer{
	Name: "floateq",
	Doc: "forbid ==/!= on floating-point operands in measures, svm, and eval\n\n" +
		"Exact float equality is rounding-fragile; compare with an epsilon\n" +
		"(e.g. math.Abs(a-b) <= eps) instead. Two idioms stay legal: comparing\n" +
		"against the literal constant 0 (a structural \"exactly zero by\n" +
		"construction\" check, used for degenerate denominators) and x != x\n" +
		"(the NaN test, though math.IsNaN is clearer).",
	Packages: []string{"measures", "svm", "eval"},
	Run:      runFloateq,
}

func runFloateq(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		e, ok := n.(*ast.BinaryExpr)
		if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
			return true
		}
		if !isFloat(p.TypeOf(e.X)) && !isFloat(p.TypeOf(e.Y)) {
			return true
		}
		// `x == 0` / `x != 0`: structurally-zero checks are exact by
		// construction and idiomatic in the bound math.
		if isZeroConst(p.Info, e.X) || isZeroConst(p.Info, e.Y) {
			return true
		}
		// `x != x`: the NaN idiom compares a value against itself.
		if exprText(e.X) == exprText(e.Y) {
			return true
		}
		p.Reportf(e.OpPos,
			"floating-point values compared with %s (%s %s %s); use an epsilon comparison such as math.Abs(a-b) <= eps",
			e.Op, exprText(e.X), e.Op, exprText(e.Y))
		return true
	})
}

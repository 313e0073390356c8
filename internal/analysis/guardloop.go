package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
)

// Guardloop enforces the guard-placement rule from internal/guard's doc
// comment on the hot packages: every directly recursive function and
// every condition-free (or constant-true) loop must reach a
// guard.Check/CheckNow or a context poll, so one refactor of a miner,
// SMO, or the C4.5 builder cannot silently reintroduce an unbounded
// computation that no deadline or cancellation can stop.
var Guardloop = &Analyzer{
	Name: "guardloop",
	Doc: "require guard.Check/ctx polls in hot-package recursions and unbounded loops\n\n" +
		"The mining, seqmining, graphmining, svm, c45, and featsel packages\n" +
		"run the pipeline's only super-linear computations; internal/guard's\n" +
		"placement rule says every recursion entry and unbounded loop body\n" +
		"must reach guard.Check (or a ctx.Err/ctx.Done poll) so\n" +
		"cancellation, deadlines, and the memory\n" +
		"watchdog can interrupt them. Flags directly recursive functions with\n" +
		"no such call and `for { }` / `for true { }` loops with neither a\n" +
		"check nor any break/return exit.",
	Packages: []string{"mining", "seqmining", "graphmining", "svm", "c45", "featsel"},
	Run:      runGuardloop,
}

// isGuardCheckCall reports whether n is a call that polls an execution
// bound: guard.Check/CheckNow on a *guard.Guard, or Err/Done on a
// context.Context.
func isGuardCheckCall(p *Pass, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv := p.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "Check", "CheckNow":
		return isGuardType(recv)
	case "Err", "Done":
		return isContextType(recv)
	}
	return false
}

// containsGuardCheck reports whether any node under root is a guard
// check call.
func containsGuardCheck(p *Pass, root ast.Node) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		if isGuardCheckCall(p, n) {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasExit reports whether the loop body contains any break or return
// statement (at any depth — deliberately conservative: a loop with an
// exit path is assumed bounded, so the analyzer under-reports rather
// than drowning bounded worklist loops in noise).
func hasExit(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.BranchStmt:
			if n.(*ast.BranchStmt).Tok == token.BREAK || n.(*ast.BranchStmt).Tok == token.GOTO {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		case *ast.FuncLit:
			return false // a nested closure's returns do not exit this loop
		}
		return !found
	})
	return found
}

// isUnboundedFor reports whether stmt loops without a bounding
// condition: `for { }` or a constant-true condition.
func isUnboundedFor(p *Pass, stmt *ast.ForStmt) bool {
	if stmt.Cond == nil {
		return true
	}
	v := constValue(p.Info, stmt.Cond)
	return v != nil && v.Kind() == constant.Bool && constant.BoolVal(v)
}

func runGuardloop(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRecursion(p, fd)
			checkLoops(p, fd)
		}
	}
}

// checkRecursion flags fd when it calls itself directly but its body
// never polls a guard. (Mutual recursion is out of scope; the placement
// rule puts a check at every recursion entry, so any one guarded member
// of a cycle bounds the cycle.)
func checkRecursion(p *Pass, fd *ast.FuncDecl) {
	self := p.Info.Defs[fd.Name]
	if self == nil {
		return
	}
	recursive := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if recursive {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if objectOf(p.Info, call.Fun) == self {
				recursive = true
				return false
			}
		}
		return true
	})
	if recursive && !containsGuardCheck(p, fd.Body) {
		p.Reportf(fd.Name.Pos(),
			"recursive function %s has no guard.Check/CheckNow or ctx poll; the guard placement rule requires a check at every recursion entry", fd.Name.Name)
	}
}

// checkLoops flags unbounded for-loops in fd that neither poll a guard
// nor have any exit path.
func checkLoops(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		stmt, ok := n.(*ast.ForStmt)
		if !ok || !isUnboundedFor(p, stmt) {
			return true
		}
		if !containsGuardCheck(p, stmt.Body) && !hasExit(stmt.Body) {
			p.Reportf(stmt.For,
				"unbounded for-loop in %s has no guard.Check/ctx poll and no exit; it cannot be canceled or deadlined", fd.Name.Name)
		}
		return true
	})
}

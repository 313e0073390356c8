package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// nilSafeTypes maps each instrumentation package to the API types
// whose exported pointer methods promise nil-receiver safety. The obs
// set is the original contract; telemetry extends it to the debug
// server and session plumbing (Flags is deliberately absent — it is a
// value-populated flag carrier, never handed around as a possibly-nil
// pointer); modelobs extends it to drift tracking, where a nil Tracker
// is the drift-off value every Predict call threads unconditionally.
var nilSafeTypes = map[string]map[string]bool{
	"obs": {"Observer": true, "Span": true, "Counter": true, "Gauge": true,
		"Histogram": true},
	"telemetry": {"Server": true, "Session": true, "Journal": true,
		"RunBuffer": true},
	"modelobs": {"Tracker": true, "Baseline": true, "Sketch": true},
}

// Obsnil enforces the producer side of the instrumentation nil
// contract: every exported pointer-receiver method on the obs and
// telemetry API types above must be safe on a nil receiver, because
// all instrumented code threads possibly-nil handles unconditionally
// and the instrumentation-off path must stay a nil check away from
// free. A single method that forgets the guard turns "observability
// off" into a panic in production.
var Obsnil = &Analyzer{
	Name: "obsnil",
	Doc: "require the nil-receiver fast path on exported obs/telemetry/modelobs API methods\n\n" +
		"Exported pointer-receiver methods on obs.Observer/Span/Counter/Gauge/\n" +
		"Histogram, telemetry.Server/Session/Journal/RunBuffer, and\n" +
		"modelobs.Tracker/Baseline/Sketch must either begin with an\n" +
		"`if recv == nil { return ... }` guard (possibly ||-joined with further\n" +
		"conditions) or touch the receiver only through nil-safe means (nil\n" +
		"comparisons and calls to other exported methods of these types). This\n" +
		"keeps every call site free to pass a nil handle — the repo-wide idiom\n" +
		"for instrumentation-off and drift-off.",
	Packages: []string{"obs", "telemetry", "modelobs"},
	Run:      runObsnil,
}

func runObsnil(p *Pass) {
	pkgName := strings.TrimSuffix(p.Pkg.Name(), "_test")
	typeSet := nilSafeTypes[pkgName]
	if typeSet == nil {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			recv := receiverIdent(p, fd, typeSet)
			if recv == nil {
				continue
			}
			if startsWithNilGuard(p, fd, recv) {
				continue
			}
			if receiverUsedNilSafely(p, fd, recv) {
				continue
			}
			p.Reportf(fd.Name.Pos(),
				"exported %s method %s dereferences its receiver without the nil guard; start with `if %s == nil { return ... }` to keep the instrumentation-off path free",
				pkgName, fd.Name.Name, recv.Name)
		}
	}
}

// receiverIdent returns the named pointer receiver of fd when its base
// type is one of the package's nil-safe types.
func receiverIdent(p *Pass, fd *ast.FuncDecl, typeSet map[string]bool) *ast.Ident {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return nil
	}
	base, ok := ast.Unparen(star.X).(*ast.Ident)
	if !ok || !typeSet[base.Name] {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// startsWithNilGuard reports whether the method body's first statement
// is `if recv == nil { ...; return ... }`, or an ||-chain containing
// that comparison (`if recv == nil || other { return }`) — either way
// a nil receiver is guaranteed to take the return.
func startsWithNilGuard(p *Pass, fd *ast.FuncDecl, recv *ast.Ident) bool {
	if len(fd.Body.List) == 0 {
		return true // empty body cannot dereference anything
	}
	ifStmt, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	if !condImpliesNilReturn(p, ifStmt.Cond, recv) {
		return false
	}
	n := len(ifStmt.Body.List)
	if n == 0 {
		return false
	}
	_, returns := ifStmt.Body.List[n-1].(*ast.ReturnStmt)
	return returns
}

// condImpliesNilReturn reports whether cond is true whenever the
// receiver is nil: the `recv == nil` comparison itself, or an ||
// disjunction with such a branch. (An && conjunction does not qualify
// — a nil receiver could still fall through on the other operand.)
func condImpliesNilReturn(p *Pass, cond ast.Expr, recv *ast.Ident) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LOR:
			return condImpliesNilReturn(p, e.X, recv) || condImpliesNilReturn(p, e.Y, recv)
		case token.EQL:
			return isReceiverUse(p, e.X, recv) && isUntypedNil(p.Info, e.Y) ||
				isReceiverUse(p, e.Y, recv) && isUntypedNil(p.Info, e.X)
		}
	}
	return false
}

// isReceiverUse reports whether e is an identifier resolving to the
// receiver object.
func isReceiverUse(p *Pass, e ast.Expr, recv *ast.Ident) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && p.Info.ObjectOf(id) == p.Info.ObjectOf(recv)
}

// isNilSafeNamed reports whether the named type belongs to a package's
// nil-safe API set.
func isNilSafeNamed(pkg *types.Package, typeName string) bool {
	if pkg == nil {
		return false
	}
	set := nilSafeTypes[strings.TrimSuffix(pkg.Name(), "_test")]
	return set != nil && set[typeName]
}

// receiverUsedNilSafely reports whether every use of the receiver in
// the body is nil-safe: a nil comparison, or the receiver of a call to
// an exported method on one of the package's nil-safe types (those
// methods carry their own guard — this analyzer checks them).
func receiverUsedNilSafely(p *Pass, fd *ast.FuncDecl, recv *ast.Ident) bool {
	recvObj := p.Info.ObjectOf(recv)
	safe := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				if isUntypedNil(p.Info, n.X) || isUntypedNil(p.Info, n.Y) {
					safe[ast.Unparen(n.X)] = true
					safe[ast.Unparen(n.Y)] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.IsExported() {
				if base := namedBase(p.TypeOf(sel.X)); base != nil && isNilSafeNamed(base.Obj().Pkg(), base.Obj().Name()) {
					safe[ast.Unparen(sel.X)] = true
				}
			}
		}
		return true
	})
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if id, isIdent := n.(*ast.Ident); isIdent && p.Info.ObjectOf(id) == recvObj && !safe[n] {
			ok = false
			return false
		}
		return true
	})
	return ok
}

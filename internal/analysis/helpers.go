package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// isFloat reports whether t's core type is a floating-point scalar
// (untyped float constants included).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isErrorType reports whether t implements the built-in error
// interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface)
}

// objectOf resolves an identifier or selector expression to the object
// it names, unwrapping parentheses.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// sentinelError resolves e to a package-level sentinel error variable —
// an exported error-typed var named Err* (or EOF, after io.EOF) — and
// returns it, or nil. These are exactly the values that must be matched
// with errors.Is, never ==, because the pipeline wraps them with
// fmt.Errorf("...: %w", ...) on the way up.
func sentinelError(info *types.Info, e ast.Expr) *types.Var {
	v, ok := objectOf(info, e).(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !isErrorType(v.Type()) {
		return nil
	}
	name := v.Name()
	if name == "EOF" {
		return v
	}
	if strings.HasPrefix(name, "Err") && len(name) > 3 {
		return v
	}
	return nil
}

// isUntypedNil reports whether e is the predeclared nil.
func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok {
		return false
	}
	b, isBasic := tv.Type.(*types.Basic)
	return isBasic && b.Kind() == types.UntypedNil
}

// constValue returns the expression's constant value, or nil.
func constValue(info *types.Info, e ast.Expr) constant.Value {
	if tv, ok := info.Types[ast.Unparen(e)]; ok {
		return tv.Value
	}
	return nil
}

// isZeroConst reports whether e is a numeric constant equal to zero.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	v := constValue(info, e)
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// (function or method), or nil for calls through function-typed values,
// conversions, and built-ins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := objectOf(info, call.Fun).(*types.Func)
	return fn
}

// isAppendCall reports whether e is a call to the append builtin.
func isAppendCall(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isPkgFunc reports whether fn is the named function of the named
// package (matched on full package path).
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// namedBase unwraps pointers and returns the named type of t, or nil.
func namedBase(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isGuardType reports whether t is (a pointer to) guard.Guard from the
// repo's internal/guard package. Matching on the path suffix keeps the
// analyzer usable from golden-test fixtures, which import the real
// package.
func isGuardType(t types.Type) bool {
	n := namedBase(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/guard") && obj.Name() == "Guard"
}

// exprText renders an expression to compact source form for message
// text and structural comparison.
func exprText(e ast.Expr) string { return types.ExprString(e) }

// isComparison reports whether op is an ordering or equality operator.
func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

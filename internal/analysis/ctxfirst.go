package analysis

import (
	"go/ast"
	"strings"
)

// Ctxfirst enforces the shape of the context-threading API introduced
// with the guard layer: the ctx-accepting variants are the *Context
// functions, ctx is always the first parameter, and contexts flow
// through calls rather than being parked in structs (a stored context
// outlives its cancellation scope and silently detaches work from the
// caller's deadline).
var Ctxfirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "require ctx-first *Context signatures and forbid context struct fields\n\n" +
		"Exported functions/methods named *Context must take context.Context\n" +
		"as their first parameter; any function taking a context must take it\n" +
		"first; and no struct may declare a context.Context field — contexts\n" +
		"are call-scoped, not state. guard.Guard, which scopes one stage's\n" +
		"ctx, is the only sanctioned carrier and holds the one waiver: stages\n" +
		"receive a caller-built *guard.Guard in their options, never a ctx.",
	Run: runCtxfirst,
}

func runCtxfirst(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && !isTestFunc(p, fd) {
				checkCtxSignature(p, fd.Name.Name, fd.Name.IsExported(), fd.Type)
			}
		}
	}
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			checkCtxFields(p, n)
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				ft, ok := m.Type.(*ast.FuncType)
				if !ok || len(m.Names) == 0 {
					continue
				}
				name := m.Names[0].Name
				checkCtxSignature(p, name, ast.IsExported(name), ft)
			}
		}
		return true
	})
}

// isTestFunc reports whether fd is a test/benchmark/fuzz harness
// function (TestFooContext is a test about contexts, not a *Context
// API).
func isTestFunc(p *Pass, fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, prefix) {
			params := flattenParams(fd.Type)
			if len(params) == 0 {
				return prefix == "Example"
			}
			n := namedBase(p.TypeOf(params[0].typ))
			if n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "testing" {
				return true
			}
		}
	}
	return false
}

// checkCtxSignature applies both signature rules to one function or
// interface method.
func checkCtxSignature(p *Pass, name string, exported bool, ft *ast.FuncType) {
	params := flattenParams(ft)
	ctxAt := -1
	for i, f := range params {
		if isContextType(p.TypeOf(f.typ)) {
			ctxAt = i
			break
		}
	}
	if exported && strings.HasSuffix(name, "Context") && ctxAt != 0 {
		p.Reportf(ft.Pos(),
			"exported %s is a *Context API but does not take context.Context as its first parameter", name)
		return
	}
	if ctxAt > 0 {
		p.Reportf(params[ctxAt].typ.Pos(),
			"context.Context must be the first parameter of %s, not parameter %d", name, ctxAt+1)
	}
}

type param struct{ typ ast.Expr }

// flattenParams expands grouped parameters (a, b int) into one entry
// per declared parameter.
func flattenParams(ft *ast.FuncType) []param {
	var out []param
	if ft.Params == nil {
		return nil
	}
	for _, f := range ft.Params.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			out = append(out, param{typ: f.Type})
		}
	}
	return out
}

func checkCtxFields(p *Pass, st *ast.StructType) {
	for _, f := range st.Fields.List {
		if isContextType(p.TypeOf(f.Type)) {
			p.Reportf(f.Type.Pos(),
				"struct stores a context.Context field; contexts are call-scoped — pass them as the first parameter, or hand a stage a *guard.Guard built with guard.New")
		}
	}
}

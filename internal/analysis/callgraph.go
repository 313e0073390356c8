package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the whole-program layer under the analyzer suite: a
// lightweight call graph over every loaded package, built from the same
// go/types information the per-package passes already have. It exists
// because the determinism contract (byte-identical results at any
// worker count) is a property of *reachability*, not of any single
// function: it constrains everything reachable from Fit,
// CrossValidate, and the miners — one time.Now or unsorted map range
// anywhere in that cone changes reported accuracy between runs.
//
// The graph is deliberately conservative (an over-approximation):
//
//   - direct calls and method calls add an edge to the resolved callee;
//   - a function *referenced* as a value (handed to a worker pool,
//     stored in a table) is assumed callable from the referencing
//     function;
//   - a call through an interface method adds CHA-style edges to every
//     concrete method of the same name, declared in any loaded package,
//     whose receiver implements that interface.
//
// Over-approximation errs toward analyzing too much, which is the safe
// direction for "nothing nondeterministic hides in this cone" claims.
type CallGraph struct {
	// nodes maps a function key (types.Func.FullName) to its node.
	nodes map[string]*CGNode
	// edges is the adjacency set: caller key -> callee keys.
	edges map[string]map[string]bool

	// Determinism holds every function reachable from the determinism
	// roots: Fit/FitContext, the CrossValidate family, and the miner
	// entry points. Code here must not read wall clocks, draw random
	// numbers, or let map iteration order escape.
	Determinism map[string]bool
}

// A CGNode is one function in the call graph. Only functions with
// bodies in the loaded packages get nodes; imported callees appear as
// edge targets but carry no node (there is no source to analyze).
type CGNode struct {
	Key  string // types.Func.FullName, e.g. "(*dfpc/internal/svm.Model).Predict"
	Name string // bare name, e.g. "Predict"
	Pos  token.Position
}

// determinismRoots are the bare function names that seed the
// determinism domain: the training entry points, the cross-validation
// family, and the miner entry points. Name-based matching keeps the
// graph usable from golden-test fixtures, which declare their own Fit.
var determinismRoots = map[string]bool{
	"Fit":                  true,
	"FitContext":           true,
	"CrossValidate":        true,
	"CrossValidateContext": true,
	"MinePerClass":         true,
	"MinePerClassAdaptive": true,
	"Mine":                 true,
}

// FuncKey returns the canonical graph key for a declared function, or
// "" when the declaration has no type information (broken package).
// The key is types.Func.FullName, which is stable across packages: the
// *types.Func a caller resolves through export data produces the same
// string as the defining package's own object.
func FuncKey(info *types.Info, fd *ast.FuncDecl) string {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}

// InDeterminism reports whether the declared function is in the
// determinism domain.
func (g *CallGraph) InDeterminism(info *types.Info, fd *ast.FuncDecl) bool {
	if g == nil {
		return false
	}
	return g.Determinism[FuncKey(info, fd)]
}

// Nodes returns the graph's nodes sorted by key (deterministic for
// tests and -json output).
func (g *CallGraph) Nodes() []*CGNode {
	out := make([]*CGNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Callees returns the sorted edge targets of the given function key.
func (g *CallGraph) Callees(key string) []string {
	out := make([]string, 0, len(g.edges[key]))
	for k := range g.edges[key] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReachableFrom returns every key reachable (inclusively) from the
// nodes whose bare name satisfies isRoot.
func (g *CallGraph) ReachableFrom(isRoot func(n *CGNode) bool) map[string]bool {
	seen := map[string]bool{}
	var stack []string
	for _, n := range g.Nodes() {
		if isRoot(n) {
			seen[n.Key] = true
			stack = append(stack, n.Key)
		}
	}
	for len(stack) > 0 {
		key := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.Callees(key) {
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return seen
}

// cgMethod records one concrete method for class-hierarchy edges.
type cgMethod struct {
	fn   *types.Func
	recv types.Type
}

// BuildCallGraph constructs the call graph over every cleanly loaded
// package and precomputes the Determinism reachability set.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes: map[string]*CGNode{},
		edges: map[string]map[string]bool{},
	}

	// Pass 1: nodes, plus the concrete-method index that interface
	// calls resolve against (CHA). Methods are indexed by bare name;
	// the receiver type decides applicability per interface.
	methodsByName := map[string][]cgMethod{}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := fn.FullName()
				if _, dup := g.nodes[key]; !dup {
					g.nodes[key] = &CGNode{
						Key:  key,
						Name: fn.Name(),
						Pos:  pkg.Fset.Position(fd.Name.Pos()),
					}
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					methodsByName[fn.Name()] = append(methodsByName[fn.Name()], cgMethod{fn: fn, recv: recv.Type()})
				}
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.addEdges(pkg.Info, fn.FullName(), fd.Body, methodsByName)
			}
		}
	}

	g.Determinism = g.ReachableFrom(func(n *CGNode) bool { return determinismRoots[n.Name] })
	return g
}

// addEdges walks one function body and records its outgoing edges:
// resolved calls, interface calls expanded by CHA, and bare function
// references (conservatively assumed callable). Function literals
// inside the body are attributed to the declaring function — a closure
// runs with its creator's obligations.
func (g *CallGraph) addEdges(info *types.Info, caller string, body ast.Node, methodsByName map[string][]cgMethod) {
	// Call positions, so the reference walk below does not double-count
	// a call's own callee expression as a value reference.
	calleeExprs := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		// Unwrap explicit generic instantiation.
		switch e := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(e.X)
		case *ast.IndexListExpr:
			fun = ast.Unparen(e.X)
		}
		calleeExprs[fun] = true
		fn, _ := objectOf(info, fun).(*types.Func)
		if fn == nil {
			return true
		}
		if isInterfaceMethod(fn) {
			g.addCHAEdges(caller, fn, methodsByName)
			return true
		}
		g.addEdge(caller, fn.FullName())
		return true
	})

	// Function values referenced without being called: assume the
	// receiver of the value may call it (worker pools, dispatch
	// tables, sort.Slice comparators).
	ast.Inspect(body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || calleeExprs[e] {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		fn, _ := objectOf(info, e).(*types.Func)
		if fn == nil {
			return true
		}
		// Selector walks visit both the SelectorExpr and its Sel ident;
		// Uses resolves both to the same func — the dedup map absorbs it.
		if isInterfaceMethod(fn) {
			g.addCHAEdges(caller, fn, methodsByName)
		} else {
			g.addEdge(caller, fn.FullName())
		}
		return true
	})
}

func (g *CallGraph) addEdge(from, to string) {
	set := g.edges[from]
	if set == nil {
		set = map[string]bool{}
		g.edges[from] = set
	}
	set[to] = true
}

// addCHAEdges links caller to every loaded concrete method that could
// stand behind the interface method ifn.
func (g *CallGraph) addCHAEdges(caller string, ifn *types.Func, methodsByName map[string][]cgMethod) {
	recv := ifn.Type().(*types.Signature).Recv()
	if recv == nil {
		return
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, m := range methodsByName[ifn.Name()] {
		if implementsEither(m.recv, iface) {
			g.addEdge(caller, m.fn.FullName())
		}
	}
}

// implementsEither reports whether t or *t satisfies iface. Method
// declarations index by their declared receiver; a value-receiver
// method set is a subset of the pointer's, so checking both sides
// covers however callers hold the type.
func implementsEither(t types.Type, iface *types.Interface) bool {
	if types.Implements(t, iface) {
		return true
	}
	if _, isPtr := t.(*types.Pointer); !isPtr {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}

// isInterfaceMethod reports whether fn is declared on an interface
// type.
func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, ok := recv.Type().Underlying().(*types.Interface)
	return ok
}

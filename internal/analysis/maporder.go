package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Maporder flags the canonical Go nondeterminism bug: ranging over a
// map and letting the iteration order escape. Go randomizes map order
// per run on purpose, so any order-sensitive use — appending to a
// slice that is never sorted, writing lines, sending on a channel,
// returning the first match — produces output that differs between two
// executions of the same binary on the same input. In this repo that
// is not a cosmetic bug: the determinism suite promises byte-identical
// reports, CSVs, and selected features at any worker count, and one
// unsorted map range in an emitter silently breaks the reproducibility
// of every reported accuracy number.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "keep map iteration order from escaping unsorted\n\n" +
		"A `for k, v := range m` over a map visits entries in a different order\n" +
		"every run. The order escapes when the body appends key/value-derived\n" +
		"data to a slice that is never subsequently sorted, writes it to an\n" +
		"io.Writer or fmt printer, sends it on a channel, or returns it. The\n" +
		"sanctioned shapes: collect into a slice and sort it before use, or do\n" +
		"only order-independent work (counting, summing, writing into another\n" +
		"keyed structure). Test files are exempt — assertion order does not\n" +
		"ship. Sites whose order is laundered downstream (e.g. a caller that\n" +
		"sorts) carry a //vet:ignore maporder with the reason.",
	Run: runMaporder,
}

func runMaporder(p *Pass) {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok || !isMapType(p.TypeOf(rng.X)) {
					return true
				}
				checkMapRange(p, fd, rng)
				return true
			})
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkMapRange taints the range's key/value variables, propagates the
// taint through simple assignments in the body, and reports every
// escape of tainted data: appends not followed by a sort, writer
// calls, channel sends, and returns.
func checkMapRange(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	tainted := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := p.Info.ObjectOf(id); obj != nil {
				tainted[obj] = true
			}
		}
	}
	if len(tainted) == 0 {
		// `for range m` without variables runs the body len(m) times
		// with nothing order-dependent in scope.
		return
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is checked on its own visit; its body
			// still propagates this loop's taint, so keep walking.
		case *ast.AssignStmt:
			// Taint flows through assignments: k2 := transform(k).
			for i, lhs := range s.Lhs {
				var rhs ast.Expr
				if len(s.Rhs) == len(s.Lhs) {
					rhs = s.Rhs[i]
				} else if len(s.Rhs) == 1 {
					rhs = s.Rhs[0]
				}
				if rhs == nil || !mentionsTainted(p.Info, rhs, tainted) {
					continue
				}
				if target := assignTargetObj(p.Info, lhs); target != nil {
					// Appends are the one sanctioned collection shape —
					// if the collected slice is sorted afterwards.
					if isAppendCall(p.Info, rhs) {
						if !sortedAfter(p, fd, rng, target) {
							p.Reportf(rhs.Pos(),
								"map iteration order escapes into %s via append and no sort of %s follows in %s; order differs every run — sort the slice before it is used",
								target.Name(), target.Name(), fd.Name.Name)
						}
						continue
					}
					tainted[target] = true
				}
			}
		case *ast.SendStmt:
			if mentionsTainted(p.Info, s.Value, tainted) {
				p.Reportf(s.Arrow,
					"map iteration order escapes on a channel send in %s; the receiver observes a different order every run", fd.Name.Name)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if mentionsTainted(p.Info, r, tainted) {
					p.Reportf(s.Return,
						"returning from inside a map range in %s selects a run-dependent entry; iterate a sorted key slice instead", fd.Name.Name)
					break
				}
			}
		case *ast.CallExpr:
			if name, ok := orderSink(p.Info, s); ok {
				for _, arg := range s.Args {
					if mentionsTainted(p.Info, arg, tainted) {
						p.Reportf(s.Pos(),
							"map iteration order escapes through %s in %s; emitted output differs every run — iterate sorted keys", name, fd.Name.Name)
						break
					}
				}
			}
		}
		return true
	})
}

// assignTargetObj resolves an assignment LHS to the root variable it
// stores into, or nil for blank/unresolvable targets.
func assignTargetObj(info *types.Info, lhs ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return nil
			}
			v, _ := info.ObjectOf(x).(*types.Var)
			return v
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return nil
		}
	}
}

// orderSink reports whether the call emits its arguments somewhere
// order-sensitive: a fmt printer, an io.Writer-shaped method, or a
// diagnostic reporter. The name is returned for the message.
func orderSink(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return "fmt." + fn.Name(), true
		}
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "WriteAll", "Printf", "Print", "Println", "Reportf":
			return fn.Name(), true
		}
	}
	return "", false
}

// sortedAfter reports whether, anywhere after the range statement in
// the enclosing function, target is passed to something that sorts it
// (sort.*, slices.Sort*, or any function whose name contains "Sort").
func sortedAfter(p *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, target *types.Var) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(p.Info, call) {
			return true
		}
		for _, arg := range call.Args {
			if mentionsVar(p.Info, arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall reports whether the call plausibly sorts an argument:
// anything in sort or slices, or a helper whose name mentions Sort.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "sort", "slices":
			return true
		}
	}
	return strings.Contains(fn.Name(), "Sort") || strings.HasPrefix(fn.Name(), "sort")
}

// mentionsTainted reports whether e references any tainted object.
func mentionsTainted(info *types.Info, e ast.Expr, tainted map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && tainted[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsVar reports whether e references the given variable.
func mentionsVar(info *types.Info, e ast.Expr, v *types.Var) bool {
	return mentionsTainted(info, e, map[types.Object]bool{v: true})
}

package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
)

// Sentinelerr enforces wrap-transparent error handling around the
// guard package's sentinel taxonomy (and any io.EOF-style sentinel):
// matching must go through errors.Is, and fmt.Errorf wrapping must use
// %w, because every stage of the pipeline adds fmt.Errorf layers on the
// way up and a == comparison (or a %v wrap) silently stops matching the
// moment anyone adds context to an error path.
var Sentinelerr = &Analyzer{
	Name: "sentinelerr",
	Doc: "require errors.Is and %w for sentinel error values\n\n" +
		"Comparing a sentinel (guard.Err*, io.EOF, any package-level Err* var)\n" +
		"with == or != breaks as soon as a caller wraps the error; matching\n" +
		"must use errors.Is. Likewise fmt.Errorf must wrap sentinels with %w,\n" +
		"not %v/%s, or the sentinel is flattened to text and errors.Is stops\n" +
		"seeing it. Flags ==/!= against sentinels (including switch cases on\n" +
		"an error value) and mis-verbed fmt.Errorf wraps.",
	Run: runSentinelerr,
}

func runSentinelerr(p *Pass) {
	p.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkSentinelCompare(p, n)
		case *ast.SwitchStmt:
			checkSentinelSwitch(p, n)
		case *ast.CallExpr:
			checkErrorfWrap(p, n)
		}
		return true
	})
}

func checkSentinelCompare(p *Pass, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{e.X, e.Y} {
		other := e.Y
		if side == e.Y {
			other = e.X
		}
		if v := sentinelError(p.Info, side); v != nil && !isUntypedNil(p.Info, other) {
			p.Reportf(e.OpPos,
				"sentinel error %s compared with %s; use errors.Is so wrapped errors still match", v.Name(), e.Op)
			return
		}
	}
}

func checkSentinelSwitch(p *Pass, s *ast.SwitchStmt) {
	if s.Tag == nil || !isErrorType(p.TypeOf(s.Tag)) {
		return
	}
	for _, stmt := range s.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if v := sentinelError(p.Info, expr); v != nil {
				p.Reportf(expr.Pos(),
					"switch-case matches sentinel error %s by ==; use errors.Is so wrapped errors still match", v.Name())
			}
		}
	}
}

// checkErrorfWrap verifies that sentinel arguments to fmt.Errorf are
// formatted with %w.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	if !isPkgFunc(calleeFunc(p.Info, call), "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	verbs, ok := formatVerbs(format)
	if !ok {
		return // explicit argument indexes; positional mapping is off
	}
	for i, arg := range call.Args[1:] {
		if i >= len(verbs) {
			break
		}
		if v := sentinelError(p.Info, arg); v != nil && verbs[i] != 'w' {
			p.Reportf(arg.Pos(),
				"fmt.Errorf formats sentinel error %s with %%%c; wrap it with %%w so errors.Is keeps matching", v.Name(), verbs[i])
		}
	}
}

// formatVerbs returns, for each argument fmt.Errorf will consume, the
// verb that formats it ('*' for a width/precision argument). ok is
// false when the format uses explicit argument indexes (%[1]s), which
// break the positional mapping.
func formatVerbs(format string) (verbs []byte, ok bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		// flags
		for i < len(format) {
			switch format[i] {
			case '+', '-', '#', ' ', '0', '\'':
				i++
				continue
			}
			break
		}
		// width
		for i < len(format) && (format[i] == '*' || (format[i] >= '0' && format[i] <= '9')) {
			if format[i] == '*' {
				verbs = append(verbs, '*')
			}
			i++
		}
		// precision
		if i < len(format) && format[i] == '.' {
			i++
			for i < len(format) && (format[i] == '*' || (format[i] >= '0' && format[i] <= '9')) {
				if format[i] == '*' {
					verbs = append(verbs, '*')
				}
				i++
			}
		}
		if i >= len(format) {
			break
		}
		switch format[i] {
		case '%':
			continue // literal %%, consumes nothing
		case '[':
			return nil, false
		default:
			verbs = append(verbs, format[i])
		}
	}
	return verbs, true
}

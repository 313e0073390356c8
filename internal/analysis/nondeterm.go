package analysis

import (
	"go/ast"
	"strings"
)

// Nondeterm polices the determinism domain — everything the call graph
// reaches from Fit/FitContext, the CrossValidate family, and the miner
// entry points — for sources of run-to-run variation: wall-clock
// reads, math/rand draws, racing selects, and raw goroutine launches.
// The repo's contract is that two runs on the same input produce
// byte-identical patterns, features, models, and CV statistics at any
// worker count; these four constructs are the ways Go code breaks that
// contract without failing a single test on any one run.
var Nondeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "keep wall clocks, rand, racing selects, and raw goroutines out of the determinism domain\n\n" +
		"Functions reachable from Fit, CrossValidate, or a miner entry point\n" +
		"must not call time.Now/Since/Until or anything in math/rand, select\n" +
		"across multiple live channels (the winner is scheduling-dependent),\n" +
		"or launch goroutines outside internal/parallel's deterministic pool.\n" +
		"Sanctioned sites — telemetry/obs span timestamps, guard deadline\n" +
		"polls, the pool's own workers — carry a //vet:ignore nondeterm with\n" +
		"the reason their nondeterminism cannot reach reported results. Test\n" +
		"files are exempt.",
	Run: runNondeterm,
}

func runNondeterm(p *Pass) {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !p.Graph.InDeterminism(p.Info, fd) {
				continue
			}
			checkNondeterm(p, fd)
		}
	}
}

func checkNondeterm(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(p.Info, s)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					p.Reportf(s.Pos(),
						"time.%s inside the determinism domain (%s is reachable from Fit/CrossValidate/miners); wall-clock values vary between runs",
						fn.Name(), fd.Name.Name)
				}
			case "math/rand", "math/rand/v2":
				p.Reportf(s.Pos(),
					"%s.%s inside the determinism domain (%s); unseeded or shared-state randomness varies between runs — derive values from explicit seeds",
					fn.Pkg().Name(), fn.Name(), fd.Name.Name)
			}
		case *ast.SelectStmt:
			live := 0
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					live++
				}
			}
			if live >= 2 {
				p.Reportf(s.Select,
					"select with %d racing cases inside the determinism domain (%s); which case wins depends on scheduling", live, fd.Name.Name)
			}
		case *ast.GoStmt:
			p.Reportf(s.Go,
				"goroutine launched inside the determinism domain (%s); result interleaving depends on scheduling — route concurrency through internal/parallel's index-ordered pool", fd.Name.Name)
		}
		return true
	})
}

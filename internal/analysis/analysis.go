// Package analysis is the repo's static-analysis substrate: a small,
// stdlib-only driver over go/parser + go/types (export data supplied by
// `go list -export`, no golang.org/x/tools dependency) plus the
// repo-specific checks that machine-enforce the cross-cutting
// invariants introduced by the obs and guard layers:
//
//   - guardloop:   hot-package loops/recursions reach a guard/ctx check
//   - sentinelerr: sentinel errors are matched with errors.Is / %w
//   - floateq:     no ==/!= on floats in the bound-math packages
//   - ctxfirst:    ctx-first *Context APIs, no ctx stored in structs
//   - obsnil:      obs methods keep their nil-receiver fast path
//   - mathrange:   math.Log/Sqrt in measures sit behind domain checks
//   - spanend:     every obs span started is ended on all paths
//   - atomicwrite: artifact/checkpoint writers stay temp+rename atomic
//   - maporder:    map iteration order never escapes unsorted
//   - nondeterm:   no clocks/rand/racing selects/raw goroutines in the
//     determinism domain (call-graph reachability from Fit/CV/miners)
//
// nondeterm is a whole-program check: Run first builds a call graph
// over every loaded package (callgraph.go) and precomputes the
// determinism reachability set it consults through Pass.Graph.
//
// The analyzers are table-registered (see registry.go); cmd/dfpc-vet is
// the CLI front end and scripts/check.sh runs it between `go vet` and
// the race tests. DESIGN.md documents each invariant; this package is
// the thing that makes violating one a build break instead of a code
// review hope.
//
// A diagnostic can be suppressed — with a reason — by a
//
//	//vet:ignore <analyzer>[,<analyzer>...] <reason>
//
// comment on the offending line or on the line directly above it.
// Suppressions are for sanctioned exceptions (e.g. guard.Guard is the
// one struct allowed to carry a context); they are grep-able and every
// one must say why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"dfpc/internal/parallel"
)

// An Analyzer is one named, self-contained check.
type Analyzer struct {
	// Name is the analyzer's identifier, used by //vet:ignore comments
	// and diagnostic suffixes.
	Name string
	// Doc is a one-paragraph description of the invariant enforced and
	// why it matters.
	Doc string
	// Packages restricts the analyzer to packages with these base names
	// (the package name with any "_test" suffix stripped, so in-package
	// and external test variants of a scoped package are covered). Nil
	// means every package.
	Packages []string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(*Pass)
}

// appliesTo reports whether the analyzer inspects a package with the
// given base name.
func (a *Analyzer) appliesTo(baseName string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if p == baseName {
			return true
		}
	}
	return false
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Graph is the whole-program call graph over every package in the
	// run, with the Determinism reachability set precomputed (see
	// callgraph.go). Per-function membership checks go through
	// Graph.InDeterminism with this pass's Info.
	Graph *CallGraph

	ignores ignoreIndex
	sink    *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a //vet:ignore comment for
// this analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.sink = append(*p.sink, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// inspect walks every file in the pass.
func (p *Pass) inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// Run applies the analyzers to every cleanly loaded package and returns
// the findings sorted by position. Packages that failed to load are
// skipped here — the caller decides how loudly to degrade (dfpc-vet
// reports them on stderr and exits 2). The whole-program call graph is
// built first — every analyzer sees the same graph — and then packages
// are analyzed concurrently on the repo's own deterministic worker
// pool, each writing findings into its own index slot; the
// index-ordered merge plus the final position sort make the output
// identical at any worker count.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	graph := BuildCallGraph(pkgs)
	sinks := make([][]Diagnostic, len(pkgs))
	err := parallel.ForEach(0, len(pkgs), func(i int) error {
		pkg := pkgs[i]
		if len(pkg.Errs) > 0 || pkg.Types == nil {
			return nil
		}
		for _, a := range analyzers {
			if !a.appliesTo(pkg.BaseName()) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Graph:    graph,
				ignores:  pkg.ignores,
				sink:     &sinks[i],
			}
			a.Run(pass)
		}
		return nil
	})
	if err != nil {
		// The workers return no errors, so this is a captured analyzer
		// panic — a bug in an analyzer, not a finding; keep it loud.
		panic(err)
	}
	var diags []Diagnostic
	for _, s := range sinks {
		diags = append(diags, s...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Atomicwrite enforces the crash-safety contract introduced by the
// durable package: artifacts (models, reports, traces, CSVs,
// checkpoints) must reach disk through temp-file + fsync + rename, so a
// crash mid-write can never leave a torn file where a complete one
// stood. Direct os.Create and os.WriteFile truncate or replace the
// destination in place — one kill -9 between truncate and the final
// write and the previous good artifact is gone.
var Atomicwrite = &Analyzer{
	Name: "atomicwrite",
	Doc: "route artifact writes through the durable package\n\n" +
		"os.Create and os.WriteFile truncate the destination before the new\n" +
		"content is safely on disk, so a crash mid-write destroys the previous\n" +
		"good file. Production code must write artifacts via durable.WriteAtomic,\n" +
		"durable.Create, or durable.SaveFile instead. The durable package itself\n" +
		"and _test.go files are exempt; genuinely non-artifact writes can carry\n" +
		"a //vet:ignore atomicwrite comment saying why.",
	Run: runAtomicwrite,
}

// unsafeWriters are the os functions that truncate-or-replace in place.
var unsafeWriters = map[string]bool{
	"Create":    true,
	"WriteFile": true,
}

func runAtomicwrite(p *Pass) {
	if strings.TrimSuffix(p.Pkg.Name(), "_test") == "durable" {
		return // the atomic implementation itself owns the raw primitives
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // tests tear files on purpose (corruption fixtures)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || !unsafeWriters[sel.Sel.Name] {
				return true
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := p.Info.ObjectOf(id).(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "os" {
				return true
			}
			p.Reportf(call.Pos(),
				"os.%s writes the destination in place — a crash mid-write tears the file; use durable.WriteAtomic/Create/SaveFile",
				sel.Sel.Name)
			return true
		})
	}
}

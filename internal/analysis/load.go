package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one type-checked analysis unit. When a package has test
// files the unit is the test-augmented variant (GoFiles + TestGoFiles),
// so in-package tests are analyzed without double-reporting the
// non-test files; external (_test package) files form their own unit.
type Package struct {
	ImportPath string
	Name       string // package name, e.g. "mining" or "mining_test"
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// Errs holds parse/type-check errors. A package with errors is
	// reported and skipped by the driver rather than aborting the whole
	// run (graceful degradation; dfpc-vet exits 2 when any are present).
	Errs []error

	ignores ignoreIndex
	waivers []Waiver
}

// BaseName is the package name with any external-test suffix stripped;
// analyzers scope on it so "measures_test" inherits the measures rules.
func (p *Package) BaseName() string { return strings.TrimSuffix(p.Name, "_test") }

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Export       string
	Standard     bool
	ForTest      string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// goList invokes `go list` in dir with the given arguments and decodes
// the JSON package stream.
func goList(dir string, args ...string) ([]*listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load enumerates the packages matching patterns (relative to dir),
// parses their sources, and type-checks them against export data
// produced by the go command. It returns one *Package per analysis
// unit. Loading is all-or-nothing only for the `go list` calls
// themselves; per-package parse/type failures are recorded in
// Package.Errs so one broken package degrades, not aborts, the run.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Pass 1: the analysis targets, with their file lists.
	listArgs := append([]string{"list", "-e", "-json=Dir,ImportPath,Name,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles,Error"}, patterns...)
	targets, err := goList(dir, listArgs...)
	if err != nil {
		return nil, err
	}

	// Pass 2: export data for every dependency (including test-only
	// deps, hence -test). The go command compiles to the build cache as
	// needed; the map feeds the gc importer's lookup function.
	exportArgs := append([]string{"list", "-e", "-export", "-deps", "-test", "-json=ImportPath,Export,ForTest,Standard"}, patterns...)
	deps, err := goList(dir, exportArgs...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, d := range deps {
		// Test variants ("p [q.test]" / ForTest != "") re-compile p with
		// its test files; the plain entry is the one import resolution
		// needs.
		if d.ForTest != "" || strings.HasSuffix(d.ImportPath, ".test") {
			continue
		}
		if d.Export != "" {
			exports[d.ImportPath] = d.Export
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var out []*Package
	for _, t := range targets {
		if t.Name == "" || len(t.GoFiles)+len(t.CgoFiles)+len(t.TestGoFiles)+len(t.XTestGoFiles) == 0 {
			continue
		}
		if t.Error != nil {
			out = append(out, &Package{
				ImportPath: t.ImportPath, Name: t.Name, Dir: t.Dir, Fset: fset,
				Errs: []error{fmt.Errorf("%s", t.Error.Err)},
			})
			continue
		}
		base := append(append([]string{}, t.GoFiles...), t.CgoFiles...)
		unit := append(base, t.TestGoFiles...)
		out = append(out, check(fset, imp, t, t.Name, unit))
		if len(t.XTestGoFiles) > 0 {
			out = append(out, check(fset, imp, t, t.Name+"_test", t.XTestGoFiles))
		}
	}
	return out, nil
}

// check parses and type-checks one unit of files from the listed
// package t.
func check(fset *token.FileSet, imp types.Importer, t *listedPackage, name string, fileNames []string) *Package {
	pkg := &Package{ImportPath: t.ImportPath, Name: name, Dir: t.Dir, Fset: fset}
	// External test packages type-check under a distinct path so their
	// import of the package under test is not a self-import.
	checkPath := t.ImportPath
	if strings.HasSuffix(name, "_test") {
		checkPath += "_test"
	}
	var files []*ast.File
	for _, fn := range fileNames {
		path := filepath.Join(t.Dir, fn)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			pkg.Errs = append(pkg.Errs, err)
			continue
		}
		files = append(files, f)
	}
	pkg.Files = files
	pkg.ignores, pkg.waivers = buildIgnoreIndex(fset, files)
	if len(pkg.Errs) > 0 {
		return pkg
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.Errs = append(pkg.Errs, err) },
	}
	tpkg, err := conf.Check(checkPath, fset, files, info)
	if err != nil && len(pkg.Errs) == 0 {
		pkg.Errs = append(pkg.Errs, err)
	}
	if len(pkg.Errs) == 0 {
		pkg.Types = tpkg
		pkg.Info = info
	}
	return pkg
}

// Command dfpc-vet runs the repo's static-analysis suite (see
// internal/analysis) over the given package patterns and prints
// file:line:col diagnostics, each tagged with the analyzer that
// produced it.
//
// Usage:
//
//	dfpc-vet [-json] [-waivers] [packages ...]
//
// With no patterns it analyzes ./... from the current directory with
// every registered analyzer.
//
// -json prints diagnostics as a JSON array (machine-readable, used by
// CI to emit problem-matcher annotations). -waivers prints every
// //vet:ignore comment in the tree with its file:line, analyzers, and
// reason — and exits 1 if any waiver has an empty reason or names an
// analyzer that is not registered, so the audit trail stays complete
// and a deleted analyzer cannot leave silent waivers behind.
//
// Exit codes are CI-actionable:
//
//	0  clean — every package loaded and no analyzer reported anything
//	1  findings — at least one diagnostic (fix it or //vet:ignore it
//	   with a reason), or a reasonless or unknown-analyzer waiver
//	   under -waivers
//	2  load failure — a package failed to parse or type-check; its
//	   errors go to stderr and the remaining packages are still
//	   analyzed (their findings still print), so one broken package
//	   degrades the run instead of hiding everything else
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dfpc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("dfpc-vet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print diagnostics as a JSON array")
	waivers := fs.Bool("waivers", false, "report every //vet:ignore waiver; exit 1 if any lacks a reason or names an unknown analyzer")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dfpc-vet [-json] [-waivers] [packages ...]\n")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	pkgs, err := analysis.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfpc-vet:", err)
		return 2
	}

	loadFailed := false
	for _, p := range pkgs {
		if len(p.Errs) > 0 {
			loadFailed = true
			fmt.Fprintf(os.Stderr, "dfpc-vet: %s: skipped, failed to load:\n", p.ImportPath)
			for _, e := range p.Errs {
				fmt.Fprintf(os.Stderr, "\t%v\n", e)
			}
		}
	}

	if *waivers {
		return reportWaivers(pkgs, *jsonOut, loadFailed)
	}

	diags := analysis.Run(pkgs, analysis.All)
	wd, _ := os.Getwd()
	for i := range diags {
		if wd != "" && strings.HasPrefix(diags[i].Pos.Filename, wd+string(os.PathSeparator)) {
			diags[i].Pos.Filename = diags[i].Pos.Filename[len(wd)+1:]
		}
	}
	if *jsonOut {
		printJSONDiags(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	switch {
	case loadFailed:
		return 2
	case len(diags) > 0:
		return 1
	default:
		if !*jsonOut {
			fmt.Printf("ok\t%d packages, %d analyzers, 0 findings\n", len(pkgs), len(analysis.All))
		}
		return 0
	}
}

// jsonDiag is the machine-readable diagnostic shape consumed by the CI
// problem matcher.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSONDiags(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// reportWaivers prints every //vet:ignore in the loaded packages and
// fails the run if any waiver is missing its reason or names an
// analyzer that is not registered — either way the waiver is an
// invisible suppression, which defeats the audit trail.
func reportWaivers(pkgs []*analysis.Package, jsonOut bool, loadFailed bool) int {
	var all []analysis.Waiver
	for _, p := range pkgs {
		all = append(all, p.Waivers()...)
	}
	wd, _ := os.Getwd()
	for i := range all {
		if wd != "" && strings.HasPrefix(all[i].File, wd+string(os.PathSeparator)) {
			all[i].File = all[i].File[len(wd)+1:]
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	missing, unknown := 0, 0
	for _, w := range all {
		if w.Reason == "" {
			missing++
		}
		for _, name := range w.Analyzers {
			if _, ok := analysis.Lookup(name); !ok {
				unknown++
				fmt.Fprintf(os.Stderr, "dfpc-vet: %s:%d: //vet:ignore names unknown analyzer %q\n", w.File, w.Line, name)
			}
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(all)
	} else {
		for _, w := range all {
			reason := w.Reason
			if reason == "" {
				reason = "MISSING REASON"
			}
			fmt.Printf("%s:%d: [%s] %s\n", w.File, w.Line, strings.Join(w.Analyzers, ","), reason)
		}
		fmt.Printf("%d waiver(s), %d missing a reason, %d naming an unknown analyzer\n", len(all), missing, unknown)
	}
	switch {
	case loadFailed:
		return 2
	case missing > 0:
		fmt.Fprintln(os.Stderr, "dfpc-vet: every //vet:ignore must state its reason")
		return 1
	case unknown > 0:
		return 1
	default:
		return 0
	}
}

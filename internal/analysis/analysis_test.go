package analysis

import (
	"strings"
	"testing"
)

func TestParseIgnore(t *testing.T) {
	cases := []struct {
		text   string
		want   []string
		reason string
	}{
		{"//vet:ignore floateq exact accumulator identity", []string{"floateq"}, "exact accumulator identity"},
		{"//vet:ignore ctxfirst,guardloop sanctioned carrier", []string{"ctxfirst", "guardloop"}, "sanctioned carrier"},
		{"//vet:ignore", nil, ""},
		{"//vet:ignored floateq", nil, ""},
		{"// vet:ignore floateq", nil, ""},
		{"// regular comment", nil, ""},
		{"//vet:ignore  floateq", []string{"floateq"}, ""},
	}
	for _, c := range cases {
		got, reason, ok := parseIgnore(c.text)
		if (c.want == nil) == ok {
			t.Errorf("parseIgnore(%q) ok = %v, want %v", c.text, ok, c.want != nil)
			continue
		}
		if strings.Join(got, "|") != strings.Join(c.want, "|") {
			t.Errorf("parseIgnore(%q) = %v, want %v", c.text, got, c.want)
		}
		if reason != c.reason {
			t.Errorf("parseIgnore(%q) reason = %q, want %q", c.text, reason, c.reason)
		}
	}
}

func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		verbs  string
		ok     bool
	}{
		{"plain", "", true},
		{"%s: %w", "sw", true},
		{"%d%%%v", "dv", true},
		{"%+v %#x % d", "vxd", true},
		{"%*.*f", "**f", true},
		{"%[1]s", "", false},
		{"stage %s min_sup=%g: %w", "sgw", true},
	}
	for _, c := range cases {
		verbs, ok := formatVerbs(c.format)
		if ok != c.ok || string(verbs) != c.verbs {
			t.Errorf("formatVerbs(%q) = %q, %v; want %q, %v", c.format, verbs, ok, c.verbs, c.ok)
		}
	}
}

func TestRegistryWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name/doc/run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if _, ok := Lookup("guardloop"); !ok {
		t.Error("Lookup(guardloop) failed")
	}
	if _, ok := Lookup("nosuch"); ok {
		t.Error("Lookup(nosuch) succeeded")
	}
}

// TestLoadDegradesOnBrokenPackage pins graceful degradation: a package
// that fails to type-check is returned with Errs set (not dropped, not
// fatal) while healthy packages in the same load still analyze.
func TestLoadDegradesOnBrokenPackage(t *testing.T) {
	pkgs, err := Load(".", "./testdata/broken", "./testdata/src/floateq/measures")
	if err != nil {
		t.Fatalf("Load must not fail outright on a type-broken package: %v", err)
	}
	var broken, healthy *Package
	for _, p := range pkgs {
		switch {
		case strings.HasSuffix(p.ImportPath, "/broken"):
			broken = p
		case strings.HasSuffix(p.ImportPath, "floateq/measures"):
			healthy = p
		}
	}
	if broken == nil || len(broken.Errs) == 0 {
		t.Fatalf("broken package not reported with errors: %+v", broken)
	}
	if healthy == nil || len(healthy.Errs) != 0 || healthy.Types == nil {
		t.Fatalf("healthy package did not survive the degraded load: %+v", healthy)
	}
	if diags := Run(pkgs, []*Analyzer{Floateq}); len(diags) == 0 {
		t.Error("healthy package produced no diagnostics after degraded load")
	}
}

// TestSuppression verifies the //vet:ignore mechanics end to end on a
// fixture that would otherwise be flagged.
func TestSuppression(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ctxfirst/ctxdemo")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := Run(pkgs, []*Analyzer{Ctxfirst})
	for _, d := range diags {
		if strings.Contains(d.Pos.Filename, "good.go") {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
	if len(diags) == 0 {
		t.Error("bad.go fixtures should still report")
	}
}

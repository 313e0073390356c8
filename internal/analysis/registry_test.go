package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistryComplete enforces the per-analyzer shipping checklist:
// every analyzer registered in All must have golden fixtures under
// testdata/src/<name>/, a row in DESIGN.md, and a section in
// docs/analyzers.md. An analyzer without fixtures is untested; one
// without docs is undiscoverable.
func TestRegistryComplete(t *testing.T) {
	if len(All) != 10 {
		t.Errorf("registry has %d analyzers, want 10 (update this test and the docs together)", len(All))
	}

	seen := map[string]bool{}
	for _, a := range All {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		seen[a.Name] = true

		fixtures := filepath.Join("testdata", "src", a.Name)
		if fi, err := os.Stat(fixtures); err != nil || !fi.IsDir() {
			t.Errorf("analyzer %q has no golden fixtures at %s", a.Name, fixtures)
		}
	}

	for _, doc := range []string{
		filepath.Join("..", "..", "DESIGN.md"),
		filepath.Join("..", "..", "docs", "analyzers.md"),
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("read %s: %v", doc, err)
		}
		text := string(data)
		for _, a := range All {
			if !strings.Contains(text, a.Name) {
				t.Errorf("analyzer %q is not documented in %s", a.Name, doc)
			}
		}
	}
}

package dfpc

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dfpc/internal/telemetry"
)

// TestCLIRunArtifacts runs each CLI once with -report, -tracejson and
// -journal and checks the shared run lifecycle end to end: the run
// exits 0, the report and trace parse, and the journal holds one record
// carrying the CLI's component, its run kind, and per-stage aggregates.
func TestCLIRunArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the three CLI binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/dfpc", "./cmd/dfpc-mine", "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		cli, kind string
		args      []string
	}{
		{"dfpc", "cv", []string{"-dataset", "labor", "-folds", "2", "-minsup", "0.3"}},
		{"dfpc-mine", "mine", []string{"-dataset", "labor", "-minsup", "0.3", "-top", "3"}},
		{"experiments", "figure", []string{"-figure", "1"}},
	} {
		t.Run(tc.cli, func(t *testing.T) {
			dir := t.TempDir()
			report := filepath.Join(dir, "report.json")
			trace := filepath.Join(dir, "trace.json")
			journal := filepath.Join(dir, "journal.jsonl")
			args := append(tc.args, "-report", report, "-tracejson", trace, "-journal", journal)
			if out, err := exec.Command(filepath.Join(bin, tc.cli), args...).CombinedOutput(); err != nil {
				t.Fatalf("%s %v: %v\n%s", tc.cli, args, err, out)
			}
			for _, p := range []string{report, trace} {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				var v map[string]any
				if err := json.Unmarshal(data, &v); err != nil || len(v) == 0 {
					t.Fatalf("%s does not parse as a JSON object: %v", filepath.Base(p), err)
				}
			}
			data, err := os.ReadFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			if len(lines) != 1 {
				t.Fatalf("journal has %d records, want 1", len(lines))
			}
			var rec telemetry.Record
			if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Component != tc.cli || rec.Kind != tc.kind || len(rec.Stages) == 0 {
				t.Fatalf("journal record: component %q kind %q, %d stages; want %q, %q, >0",
					rec.Component, rec.Kind, len(rec.Stages), tc.cli, tc.kind)
			}
		})
	}
}

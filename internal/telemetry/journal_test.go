package telemetry

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dfpc/internal/obs"
)

func TestJournalAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	j, err := OpenJournal(path, "dfpc", "abc123")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: "cv", Dataset: "heart", Folds: 5, Accuracy: 0.81}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Kind: "fit", RunID: "custom", Component: "other"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", len(recs)+1, err, sc.Text())
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.RunID != "abc123" || r0.Component != "dfpc" || r0.Time.IsZero() {
		t.Fatalf("record not stamped: %+v", r0)
	}
	if r0.Kind != "cv" || r0.Dataset != "heart" || r0.Accuracy != 0.81 {
		t.Fatalf("record fields lost: %+v", r0)
	}
	// Caller-supplied identity wins over the journal's.
	if recs[1].RunID != "custom" || recs[1].Component != "other" {
		t.Fatalf("caller identity overwritten: %+v", recs[1])
	}
}

func TestJournalAppendsAcrossOpens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path, "dfpc", "r")
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Record{Kind: "mine"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("journal has %d lines after two opens, want 2", n)
	}
}

func TestJournalNilSafe(t *testing.T) {
	j, err := OpenJournal("", "dfpc", "r")
	if err != nil || j != nil {
		t.Fatalf("empty path must mean disabled journal, got %v, %v", j, err)
	}
	if err := j.Append(Record{Kind: "cv"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var s *Session
	s.EnableDrift(nil)
	s.Journal(Record{})
	if err := s.Finish("run", Record{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.Addr() != "" {
		t.Fatal("nil session must have no address")
	}
}

func TestStagesFromReport(t *testing.T) {
	o := obs.New()
	fit := o.Start("fit")
	o.Start("mine").End()
	o.Start("mine").End()
	sel := o.Start("select")
	time.Sleep(time.Millisecond)
	sel.End()
	fit.End()

	stages := StagesFromReport(o.Report("run"))
	byName := map[string]StageStat{}
	for _, s := range stages {
		byName[s.Name] = s
	}
	if byName["mine"].Count != 2 {
		t.Fatalf("mine count = %d, want 2 (aggregated)", byName["mine"].Count)
	}
	if byName["fit"].Count != 1 || byName["select"].Count != 1 {
		t.Fatalf("unexpected aggregation: %+v", stages)
	}
	// fit contains the 1ms select, so it must sort first.
	if stages[0].Name != "fit" {
		t.Fatalf("stages not sorted by wall time: %+v", stages)
	}
	if StagesFromReport(nil) != nil {
		t.Fatal("nil report must aggregate to nil")
	}
}

func TestFlagsSession(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs)
	dir := t.TempDir()
	journal := filepath.Join(dir, "j.jsonl")
	report := filepath.Join(dir, "r.json")
	trace := filepath.Join(dir, "t.json")
	err := fs.Parse([]string{
		"-listen", "127.0.0.1:0",
		"-log-format", "json",
		"-journal", journal,
		"-report", report,
		"-tracejson", trace,
	})
	if err != nil {
		t.Fatal(err)
	}

	_, ses, err := f.Start("dfpc-test")
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	if ses.Log == nil || ses.RunID == "" || ses.Obs == nil {
		t.Fatalf("session missing logger, run id or observer: %+v", ses)
	}
	if ses.Addr() == "" {
		t.Fatal("session with -listen must expose a bound address")
	}
	ses.Obs.Start("mine").End()
	audit := map[string]any{"mmrfs": []int{3, 1}}
	if err := ses.Finish("run", Record{Kind: "cv", Audits: audit}); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, "http://"+ses.Addr()+"/runs")
	if code != 200 || !strings.Contains(body, `"name": "run"`) {
		t.Fatalf("/runs missing published report: %d %s", code, body)
	}

	ses.Close()
	ses.Close() // idempotent
	var rep obs.RunReport
	readJSON(t, report, &rep)
	if rep.Name != "run" || len(rep.Spans) == 0 || rep.Audits["mmrfs"] == nil {
		t.Fatalf("report incomplete: %+v", rep)
	}
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	readJSON(t, trace, &tr)
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var rec Record
	readJSON(t, journal, &rec)
	if rec.Kind != "cv" || rec.Component != "dfpc-test" || len(rec.Stages) == 0 || rec.Audits["mmrfs"] == nil {
		t.Fatalf("journal record incomplete: %+v", rec)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestFlagsBadFormat(t *testing.T) {
	for _, f := range []Flags{
		{LogFormat: "yaml"},
		{FaultSpec: "no.such.point:1"},
	} {
		if _, ses, err := f.Start("x"); err == nil {
			ses.Close()
			t.Fatalf("%+v: Start must fail", f)
		}
	}
}

func TestFlagsDefaultSession(t *testing.T) {
	// No flags but -timeout set: the session still provides a logger,
	// everything else is inert, and the timeout bounds the context.
	ctx, ses, err := (&Flags{Timeout: time.Millisecond}).Start("dfpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ses.Close()
	if ses.Log == nil || ses.Addr() != "" || ses.Obs != nil || ses.Faults != nil {
		t.Fatal("flagless session must log but not listen, observe, or inject faults")
	}
	ses.Journal(Record{Kind: "noop"}) // disabled journal: must not panic
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("-timeout did not cancel the run context")
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatalf("ctx.Err() = %v, want DeadlineExceeded", ctx.Err())
	}
}

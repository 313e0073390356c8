package core

import (
	"bytes"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/obs"
)

// findSpan walks a span tree depth-first for the first span named name.
func findSpan(spans []*obs.SpanReport, name string) *obs.SpanReport {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if hit := findSpan(s.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

func TestFitRecordsStageSpansAndCounters(t *testing.T) {
	d, err := datagen.ByName("heart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	o := obs.New()
	p := NewFamily(PatFS, Config{MinSupport: 0.15})
	p.SetObserver(o)
	if p.Observer() != o {
		t.Fatal("Observer() did not return the installed observer")
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := predict(p, d, rows[:20]); err != nil {
		t.Fatal(err)
	}

	r := o.Report("heart")
	fit := findSpan(r.Spans, "fit")
	if fit == nil {
		t.Fatalf("no fit span in report: %+v", r.Spans)
	}
	for _, stage := range []string{"discretize", "encode", "mine", "mine-class", "select", "mmrfs", "featurize", "learn"} {
		if findSpan(fit.Children, stage) == nil {
			t.Errorf("fit span missing %q stage", stage)
		}
	}
	if findSpan(r.Spans, "predict") == nil {
		t.Error("no predict span recorded")
	}
	for _, c := range []string{
		"encode.items_mapped", "mine.extensions", "mine.patterns_emitted",
		"core.patterns_mined", "core.features_selected",
		"mmrfs.iterations", "mmrfs.selected",
		"svm.smo_iterations", "svm.support_vectors",
	} {
		if r.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0", c, r.Counters[c])
		}
	}
	if r.Gauges["core.min_sup"] != 0.15 {
		t.Errorf("core.min_sup gauge = %v, want 0.15", r.Gauges["core.min_sup"])
	}
	if int64(p.Stats.MinedCount) != r.Counters["core.patterns_mined"] {
		t.Errorf("Stats.MinedCount %d != counter %d", p.Stats.MinedCount, r.Counters["core.patterns_mined"])
	}
}

func TestC45ObserverCounters(t *testing.T) {
	d, err := datagen.ByName("heart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	o := obs.New()
	p := NewFamily(PatFS, Config{Learner: C45Tree, MinSupport: 0.15})
	p.SetObserver(o)
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	r := o.Report("")
	if r.Counters["c45.nodes"] <= 0 {
		t.Errorf("c45.nodes = %d, want > 0", r.Counters["c45.nodes"])
	}
	if r.Gauges["c45.depth"] <= 0 {
		t.Errorf("c45.depth = %v, want > 0", r.Gauges["c45.depth"])
	}
}

// TestSaveWithObserverInstalled proves observers never leak into model
// snapshots and do not break gob encoding of the embedded configs.
func TestSaveWithObserverInstalled(t *testing.T) {
	d, err := datagen.ByName("heart", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	o := obs.New()
	p := NewFamily(PatFS, Config{MinSupport: 0.2})
	p.SetObserver(o)
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save with observer installed: %v", err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Observer() != nil {
		t.Fatal("loaded pipeline carries an observer")
	}
	want, err := predict(p, d, rows[:30])
	if err != nil {
		t.Fatal(err)
	}
	got, err := predict(q, d, rows[:30])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d diverged after reload: %d vs %d", i, want[i], got[i])
		}
	}
}

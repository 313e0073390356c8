package core

import (
	"context"
	"strings"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
)

func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// predict classifies rows through PredictBatch into a fresh slice.
func predict(p *Pipeline, d *dataset.Dataset, rows []int) ([]int, error) {
	out := make([]int, len(rows))
	return out, p.PredictBatch(context.Background(), d, rows, out)
}

// TestFitRejectsUnknownLearner pins that a Learner value no case of
// learn names fails Fit instead of training a linear SVM. 3 and 4 were
// the removed naive-Bayes and kNN learners.
func TestFitRejectsUnknownLearner(t *testing.T) {
	d := xorDataset(40)
	for _, l := range []Learner{-1, 3, 4, 7} {
		p := NewFamily(PatFS, Config{Learner: l, MinSupport: 0.2})
		err := p.Fit(d, allRows(d.NumRows()))
		if err == nil || !strings.Contains(err.Error(), l.String()) {
			t.Fatalf("Fit with %v: err = %v, want one naming the learner", l, err)
		}
	}
}

func TestLearnerStringers(t *testing.T) {
	for l, want := range map[Learner]string{
		SVMLinear: "svm-linear",
		SVMRBF:    "svm-rbf",
		C45Tree:   "c4.5",
	} {
		if got := l.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(l), got, want)
		}
	}
	if Learner(99).String() == "" {
		t.Error("unknown learner stringer empty")
	}
}

func TestExplainReportsSelectedPatterns(t *testing.T) {
	d := xorDataset(80)
	p := NewFamily(PatFS, Config{MinSupport: 0.2})
	if err := p.Fit(d, allRows(d.NumRows())); err != nil {
		t.Fatal(err)
	}
	rep := p.Explain()
	if len(rep) == 0 {
		t.Fatal("empty report")
	}
	if len(rep) != p.Stats.FeatureCount {
		t.Fatalf("report has %d entries, selected %d", len(rep), p.Stats.FeatureCount)
	}
	for _, r := range rep {
		if r.Length < 2 || len(r.Items) != r.Length {
			t.Fatalf("bad report entry: %+v", r)
		}
		if !strings.Contains(r.Name, "=") || !strings.Contains(r.Name, "∧") {
			t.Fatalf("unreadable pattern name %q", r.Name)
		}
		if r.Support <= 0 || r.RelSupport <= 0 || r.RelSupport > 1 {
			t.Fatalf("bad support stats: %+v", r)
		}
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Fatalf("bad confidence: %+v", r)
		}
		if r.MajorityClass != "even" && r.MajorityClass != "odd" {
			t.Fatalf("bad majority class %q", r.MajorityClass)
		}
	}
}

func TestExplainEmptyForItemModels(t *testing.T) {
	d := xorDataset(40)
	p := NewFamily(ItemAll, Config{})
	if err := p.Fit(d, allRows(d.NumRows())); err != nil {
		t.Fatal(err)
	}
	if rep := p.Explain(); rep != nil {
		t.Fatalf("Item_All should have no pattern report, got %d entries", len(rep))
	}
}

func TestFitDeterminism(t *testing.T) {
	d, err := datagen.ByName("labor", 4)
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(d.NumRows())
	run := func() []int {
		p := NewFamily(PatFS, Config{MinSupport: 0.3})
		if err := p.Fit(d, rows); err != nil {
			t.Fatal(err)
		}
		pred, err := predict(p, d, rows)
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d differs across identical fits", i)
		}
	}
}

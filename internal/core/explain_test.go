package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dfpc/internal/obs"
)

func fitXOR(t *testing.T, l Learner) (*Pipeline, []int, *Pipeline) {
	t.Helper()
	d := xorDataset(80)
	p := NewPatFS(l, 0.2)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	return p, rows, p
}

func TestPredictExplainSVM(t *testing.T) {
	d := xorDataset(80)
	p, rows, _ := fitXOR(t, SVMLinear)

	pred, err := predict(p, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := p.PredictExplain(context.Background(), d, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != len(rows) {
		t.Fatalf("%d explanations for %d rows", len(exps), len(rows))
	}
	firedAny := false
	for i, ex := range exps {
		if ex.Class != pred[i] {
			t.Fatalf("row %d: explained class %d != predicted %d — explanation changed the prediction", i, ex.Class, pred[i])
		}
		if ex.Row != rows[i] {
			t.Fatalf("row %d: explanation row %d", i, ex.Row)
		}
		if ex.ClassName != d.Classes[ex.Class] {
			t.Fatalf("row %d: class name %q for class %d", i, ex.ClassName, ex.Class)
		}
		if ex.SVM == nil {
			t.Fatalf("row %d: SVM learner produced no SVM evidence", i)
		}
		if ex.Tree != nil {
			t.Fatalf("row %d: SVM learner produced a tree path", i)
		}
		if len(ex.Items) != len(ex.ItemNames) {
			t.Fatalf("row %d: %d items but %d names", i, len(ex.Items), len(ex.ItemNames))
		}
		for _, fp := range ex.Fired {
			firedAny = true
			if fp.Name == "" {
				t.Fatalf("row %d: fired pattern %d has no rendered name", i, fp.FeatureID)
			}
			if fp.Support <= 0 {
				t.Fatalf("row %d: fired pattern %q support %d", i, fp.Name, fp.Support)
			}
			if len(fp.Items) == 0 {
				t.Fatalf("row %d: fired pattern %q lost its itemset", i, fp.Name)
			}
		}
	}
	// XOR is only solvable through pattern features; they must fire.
	if !firedAny {
		t.Fatal("no pattern features fired on the XOR dataset")
	}
}

func TestPredictExplainC45(t *testing.T) {
	d := xorDataset(80)
	p, rows, _ := fitXOR(t, C45Tree)
	pred, err := predict(p, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := p.PredictExplain(context.Background(), d, rows[:10])
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range exps {
		if ex.Class != pred[i] {
			t.Fatalf("row %d: explained class %d != predicted %d", i, ex.Class, pred[i])
		}
		if ex.Tree == nil {
			t.Fatalf("row %d: C4.5 learner produced no decision path", i)
		}
		if ex.SVM != nil {
			t.Fatalf("row %d: C4.5 learner produced SVM evidence", i)
		}
		if ex.Tree.LeafTotal <= 0 {
			t.Fatalf("row %d: empty leaf in decision path", i)
		}
	}
}

// TestPredictExplainJSON: each explanation must serialize to one JSON
// object — the contract behind `dfpc -load model -explain N` JSONL
// output.
func TestPredictExplainJSON(t *testing.T) {
	d := xorDataset(40)
	p, rows, _ := fitXOR(t, SVMLinear)
	exps, err := p.PredictExplain(context.Background(), d, rows[:5])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ex := range exps {
		if err := enc.Encode(ex); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < len(exps); i++ {
		var back PredictionExplanation
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("line %d does not decode: %v", i, err)
		}
		if back.Class != exps[i].Class || back.Row != exps[i].Row {
			t.Fatalf("line %d round-trip drift: %+v vs %+v", i, back, exps[i])
		}
	}
}

// TestPredictExplainAfterLoad: a pipeline restored with Load has no
// item space; explanations must still work, by feature ID only.
func TestPredictExplainAfterLoad(t *testing.T) {
	d := xorDataset(80)
	p, rows, _ := fitXOR(t, SVMLinear)

	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := q.PredictExplain(context.Background(), d, rows[:8])
	if err != nil {
		t.Fatal(err)
	}
	orig, err := p.PredictExplain(context.Background(), d, rows[:8])
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range exps {
		if ex.Class != orig[i].Class {
			t.Fatalf("row %d: loaded pipeline explains class %d, original %d", i, ex.Class, orig[i].Class)
		}
		if len(ex.ItemNames) != 0 {
			t.Fatalf("row %d: loaded pipeline (no item space) rendered item names %v", i, ex.ItemNames)
		}
		if len(ex.Items) != len(orig[i].Items) {
			t.Fatalf("row %d: item IDs drifted after load", i)
		}
	}
}

func TestPredictExplainBeforeFit(t *testing.T) {
	p := NewPatFS(SVMLinear, 0.2)
	if _, err := p.PredictExplain(context.Background(), xorDataset(8), []int{0}); err == nil {
		t.Fatal("PredictExplain before Fit must error")
	}
}

// TestFitRecordsSelectionAudit: fitting a pattern pipeline with an
// observer attaches the MMRFS decision trail to Stats.
func TestFitRecordsSelectionAudit(t *testing.T) {
	d := xorDataset(80)
	p := NewPatFS(SVMLinear, 0.2)
	p.SetObserver(obs.New())
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	if len(p.Stats.SelectionAudit) == 0 {
		t.Fatal("no selection audit recorded with observability on")
	}
	accepted := 0
	for _, e := range p.Stats.SelectionAudit {
		if e.Accepted {
			accepted++
		}
	}
	if accepted != p.Stats.FeatureCount {
		t.Fatalf("%d accepted audit entries, %d selected features", accepted, p.Stats.FeatureCount)
	}
}

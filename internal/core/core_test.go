package core

import (
	"context"
	"math"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/eval"
)

// xorDataset is the paper's motivating scenario: two binary attributes
// whose XOR determines the class, plus a noise attribute. Single
// features carry zero signal; the pattern features carry all of it.
func xorDataset(n int) *dataset.Dataset {
	d := &dataset.Dataset{
		Name: "xor",
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "y", Kind: dataset.Categorical, Values: []string{"0", "1"}},
			{Name: "z", Kind: dataset.Categorical, Values: []string{"0", "1"}},
		},
		Classes: []string{"even", "odd"},
	}
	for i := 0; i < n; i++ {
		x := (i / 2) % 2
		y := i % 2
		z := (i / 4) % 2
		d.Rows = append(d.Rows, []float64{float64(x), float64(y), float64(z)})
		d.Labels = append(d.Labels, (x+y)%2)
	}
	return d
}

func TestPatternPipelineSolvesXOR(t *testing.T) {
	d := xorDataset(80)
	p := NewPatFS(SVMLinear, 0.2)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	pred, err := predict(p, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := eval.Accuracy(pred, d.Labels)
	if acc < 0.99 {
		t.Fatalf("Pat_FS on XOR accuracy = %v, want ~1", acc)
	}
	if p.Stats.FeatureCount == 0 {
		t.Fatal("no pattern features selected")
	}
}

func TestItemOnlyFailsXOR(t *testing.T) {
	d := xorDataset(80)
	p := NewItemAll(SVMLinear)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	pred, err := predict(p, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := eval.Accuracy(pred, d.Labels)
	if acc > 0.7 {
		t.Fatalf("Item_All on XOR accuracy = %v; linear single features should fail", acc)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{UsePatterns: true, SelectItems: true}); err == nil {
		t.Fatal("UsePatterns+SelectItems should error")
	}
}

func TestPredictBeforeFit(t *testing.T) {
	p := NewItemAll(SVMLinear)
	if _, err := predict(p, xorDataset(8), []int{0}); err == nil {
		t.Fatal("Predict before Fit should error")
	}
}

func TestFitEmptyRows(t *testing.T) {
	p := NewItemAll(SVMLinear)
	if err := p.Fit(xorDataset(8), nil); err == nil {
		t.Fatal("empty training rows should error")
	}
}

func TestAllFamiliesCrossValidate(t *testing.T) {
	d, err := datagen.ByName("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	fams := map[string]*Pipeline{
		"Item_All": NewItemAll(SVMLinear),
		"Item_FS":  NewItemFS(SVMLinear),
		"Item_RBF": NewItemRBF(0),
		"Pat_All":  NewPatAll(SVMLinear, 0.3),
		"Pat_FS":   NewPatFS(SVMLinear, 0.3),
		"C45_All":  NewItemAll(C45Tree),
		"C45_Pat":  NewPatFS(C45Tree, 0.3),
	}
	for name, p := range fams {
		res, err := eval.CrossValidateContext(context.Background(), p, d, 3, 7, eval.CVOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Mean <= 0.3 || res.Mean > 1 {
			t.Fatalf("%s: implausible accuracy %v", name, res.Mean)
		}
	}
}

func TestPatFSBeatsItemAllOnPatternedData(t *testing.T) {
	// Generated data with planted conjunctions: the pattern-based model
	// must not lose to the single-feature model (the paper's headline
	// result).
	d, err := datagen.ByName("austral", 11)
	if err != nil {
		t.Fatal(err)
	}
	itemAll, err := eval.CrossValidateContext(context.Background(), NewItemAll(SVMLinear), d, 5, 3, eval.CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	patFS, err := eval.CrossValidateContext(context.Background(), NewPatFS(SVMLinear, 0.1), d, 5, 3, eval.CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if patFS.Mean < itemAll.Mean-0.02 {
		t.Fatalf("Pat_FS %.4f worse than Item_All %.4f", patFS.Mean, itemAll.Mean)
	}
}

func TestMinSupportStrategyResolves(t *testing.T) {
	d := xorDataset(100)
	p := NewPatFS(SVMLinear, 0) // min_sup <= 0 → derive from IG0
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	if p.Stats.MinSupport <= 0 || p.Stats.MinSupport > 0.5 {
		t.Fatalf("derived min_sup = %v, implausible", p.Stats.MinSupport)
	}
}

func TestItemFSRestrictsSpace(t *testing.T) {
	d, err := datagen.ByName("zoo", 5)
	if err != nil {
		t.Fatal(err)
	}
	p := NewItemFS(SVMLinear)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	if p.Stats.FeatureCount == 0 || p.Stats.FeatureCount >= p.Stats.MinedCount {
		t.Fatalf("Item_FS kept %d of %d items; expected a strict subset",
			p.Stats.FeatureCount, p.Stats.MinedCount)
	}
}

func TestNumericPipelineEndToEnd(t *testing.T) {
	d, err := datagen.ByName("iris", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.CrossValidateContext(context.Background(), NewPatFS(SVMLinear, 0.15), d, 3, 1, eval.CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean < 0.5 {
		t.Fatalf("iris Pat_FS accuracy %v too low", res.Mean)
	}
}

func TestAnalyzePatterns(t *testing.T) {
	d := xorDataset(80)
	stats, b, err := AnalyzePatterns(d, AnalyzeOptions{MinSupport: 0.2, IncludeSingles: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumItems() != 6 {
		t.Fatalf("items = %d, want 6", b.NumItems())
	}
	singles, patterns := 0, 0
	bestSingle, bestPattern := 0.0, 0.0
	for _, s := range stats {
		if s.Length == 1 {
			singles++
			if s.InfoGain > bestSingle {
				bestSingle = s.InfoGain
			}
		} else {
			patterns++
			if s.InfoGain > bestPattern {
				bestPattern = s.InfoGain
			}
		}
		if s.Support <= 0 || s.RelSupport <= 0 || s.RelSupport > 1 {
			t.Fatalf("bad support stats: %+v", s)
		}
	}
	if singles != 6 || patterns == 0 {
		t.Fatalf("singles=%d patterns=%d", singles, patterns)
	}
	// Figure 1's claim on XOR: some pattern beats every single feature.
	if bestPattern <= bestSingle {
		t.Fatalf("best pattern IG %v <= best single IG %v", bestPattern, bestSingle)
	}
}

func TestIGBoundCurveDominatesStats(t *testing.T) {
	d := xorDataset(60)
	stats, b, err := AnalyzePatterns(d, AnalyzeOptions{MinSupport: 0.1, IncludeSingles: true})
	if err != nil {
		t.Fatal(err)
	}
	curve := IGBoundCurve(b.ClassCounts())
	if len(curve) != b.NumRows()-1 {
		t.Fatalf("curve length %d", len(curve))
	}
	for _, s := range stats {
		if s.Support >= 1 && s.Support < b.NumRows() {
			bound := curve[s.Support-1].Bound
			if s.InfoGain > bound+1e-9 {
				t.Fatalf("feature %v IG %v exceeds bound %v at support %d",
					s.Items, s.InfoGain, bound, s.Support)
			}
		}
	}
}

func TestFisherBoundCurveDominatesStats(t *testing.T) {
	d := xorDataset(60)
	stats, b, err := AnalyzePatterns(d, AnalyzeOptions{MinSupport: 0.1, IncludeSingles: true})
	if err != nil {
		t.Fatal(err)
	}
	curve := FisherBoundCurve(b.ClassCounts())
	for _, s := range stats {
		if s.Support >= 1 && s.Support < b.NumRows() {
			bound := curve[s.Support-1].Bound
			if !math.IsInf(bound, 1) && s.Fisher > bound+1e-9 {
				t.Fatalf("feature %v Fisher %v exceeds bound %v at support %d",
					s.Items, s.Fisher, bound, s.Support)
			}
		}
	}
}

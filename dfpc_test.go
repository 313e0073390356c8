package dfpc

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"dfpc/internal/dataset"
)

// predict classifies rows through PredictBatch into a fresh slice.
func predict(c *Classifier, d *Dataset, rows []int) ([]int, error) {
	out := make([]int, len(rows))
	return out, c.PredictBatch(context.Background(), d, rows, out)
}

func TestPublicEndToEnd(t *testing.T) {
	d, err := Generate("labor", 3)
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.3), WithCoverage(2))
	res, err := CrossValidate(clf, d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean <= 0.4 || res.Mean > 1 {
		t.Fatalf("accuracy = %v, implausible", res.Mean)
	}
}

func TestAllFamilyLearnerCombos(t *testing.T) {
	d, err := Generate("zoo", 4)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := TrainTestSplit(d, 0.3, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Family{ItemAll, ItemFS, ItemRBF, PatAll, PatFS} {
		for _, l := range []Learner{SVM, C45} {
			clf := NewClassifier(f, l, WithMinSupport(0.4))
			acc, err := Evaluate(clf, d, train, test)
			if err != nil {
				t.Fatalf("%v/%v: %v", f, l, err)
			}
			if acc < 0.2 {
				t.Fatalf("%v/%v: accuracy %v", f, l, acc)
			}
		}
	}
}

func TestCSVRoundTripThroughPublicAPI(t *testing.T) {
	d, err := Generate("labor", 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadCSV(&buf, "labor-roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumRows() != d.NumRows() || d2.NumClasses() != d.NumClasses() {
		t.Fatal("round trip changed shape")
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 22 {
		t.Fatalf("names = %d, want 22", len(names))
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"austral", "chess", "waveform", "letter", "iris"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in %v", want, names)
		}
	}
}

func TestAnalyzeAndBounds(t *testing.T) {
	d, err := Generate("breast", 2)
	if err != nil {
		t.Fatal(err)
	}
	stats, classCounts, err := AnalyzePatterns(d, 0.2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 || len(classCounts) != 2 {
		t.Fatalf("stats=%d classes=%d", len(stats), len(classCounts))
	}
	curve := IGBoundCurve(classCounts)
	for _, s := range stats {
		if s.Support >= 1 && s.Support <= len(curve) {
			if s.InfoGain > curve[s.Support-1].Bound+1e-9 {
				t.Fatalf("IG %v above bound %v", s.InfoGain, curve[s.Support-1].Bound)
			}
		}
	}
	if len(FisherBoundCurve(classCounts)) == 0 {
		t.Fatal("empty Fisher curve")
	}
}

func TestMinSupportStrategyPublic(t *testing.T) {
	s, err := MinSupportForIG(0.1, 0.4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("s = %d", s)
	}
	// Consistency with the bound function.
	theta := float64(s) / 1000
	if IGUpperBound(theta, 0.4) > 0.1 {
		t.Fatal("strategy/bound inconsistency")
	}
	if _, err := MinSupportForFisher(0.5, 0.4, 100); err != nil {
		t.Fatal(err)
	}
}

func TestOptionsApply(t *testing.T) {
	// Smoke: every option must compose without breaking the fit.
	d, err := Generate("labor", 5)
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, C45,
		WithMinSupport(0.35),
		WithIGThreshold(0.05),
		WithCoverage(2),
		WithFisherRelevance(),
		WithSVMC(2),
		WithRBFGamma(0.5),
		WithMaxPatternLen(3),
		WithMaxPatterns(10000),
	)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := clf.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := predict(clf, d, rows[:5]); err != nil {
		t.Fatal(err)
	}
}

func TestStringers(t *testing.T) {
	if ItemAll.String() != "Item_All" || PatFS.String() != "Pat_FS" {
		t.Fatal("Family stringer wrong")
	}
	if SVM.String() != "SVM" || C45.String() != "C4.5" {
		t.Fatal("Learner stringer wrong")
	}
	if Family(99).String() == "" || Learner(99).String() == "" {
		t.Fatal("unknown stringer empty")
	}
}

// Failure-injection and robustness tests at the public API boundary.

func TestLoadCSVGarbage(t *testing.T) {
	for name, data := range map[string]string{
		"binary junk":   "\x00\x01\x02",
		"ragged":        "a,b,label\n1,2,x\n3,y\n",
		"quotes broken": "a,label\n\"unterminated,x\n",
		"header only":   "a,label\n",
	} {
		if _, err := LoadCSV(strings.NewReader(data), name); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestGenerateUnknownDataset(t *testing.T) {
	if _, err := Generate("not-a-dataset", 1); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
}

func TestClassifierSingleClassTraining(t *testing.T) {
	// A degenerate training subset with one class must train and always
	// predict that class, not crash.
	csv := "a,label\n1,only\n2,only\n3,only\n4,only\n"
	d, err := LoadCSV(strings.NewReader(csv), "single")
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(ItemAll, SVM)
	rows := []int{0, 1, 2, 3}
	if err := clf.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	pred, err := predict(clf, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pred {
		if p != 0 {
			t.Fatalf("predicted %d on single-class data", p)
		}
	}
}

func TestClassifierConstantColumn(t *testing.T) {
	// A constant attribute and an all-missing attribute must flow
	// through discretization, encoding, mining, and learning.
	csv := "const,missing,signal,label\n" +
		"k,?,1,a\nk,?,1,a\nk,?,1,a\nk,?,2,b\nk,?,2,b\nk,?,2,b\n" +
		"k,?,1,a\nk,?,1,a\nk,?,2,b\nk,?,2,b\n"
	d, err := LoadCSV(strings.NewReader(csv), "degenerate")
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.3))
	res, err := CrossValidate(clf, d, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean < 0.9 {
		t.Fatalf("accuracy %v on trivially separable data", res.Mean)
	}
}

func TestCompareAcrossClassifiers(t *testing.T) {
	d, err := Generate("heart", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CrossValidate(NewClassifier(PatFS, SVM, WithMinSupport(0.15)), d, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(NewClassifier(ItemAll, SVM), d, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean <= b.Mean {
		t.Fatalf("Pat_FS (%.3f) should beat Item_All (%.3f) on heart", a.Mean, b.Mean)
	}
}

// TestFitRejectsUnknownLearnerPublic pins that a Learner value outside
// SVM and C45 fails Fit instead of training a linear SVM. 2 and 3 were
// the removed NaiveBayes and KNN values.
func TestFitRejectsUnknownLearnerPublic(t *testing.T) {
	d, err := Generate("labor", 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	for _, l := range []Learner{-1, 2, 3, 7} {
		clf := NewClassifier(PatFS, l, WithMinSupport(0.3))
		if err := clf.Fit(d, rows); err == nil {
			t.Fatalf("Fit with %v trained a model", l)
		}
	}
}

func TestSaveLoadModelPublic(t *testing.T) {
	d, err := Generate("labor", 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := TrainTestSplit(d, 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.3))
	if err := clf.Fit(d, train); err != nil {
		t.Fatal(err)
	}
	want, err := predict(clf, d, test)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, clf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := predict(loaded, d, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prediction %d changed after save/load", i)
		}
	}
}

func TestLUCSThroughPipeline(t *testing.T) {
	// LUCS-KDD transactions flow through the whole framework: the
	// single-valued-attribute trick (absent item = missing cell) must
	// reproduce the transactions exactly and classify fine.
	var sb strings.Builder
	for i := 0; i < 30; i++ {
		if i%2 == 0 {
			sb.WriteString("1 3 9\n") // class item 9
		} else {
			sb.WriteString("2 4 10\n") // class item 10
		}
	}
	d, err := dataset.ReadLUCS(strings.NewReader(sb.String()), "lucs-demo")
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.5))
	res, err := CrossValidate(clf, d, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean < 0.99 {
		t.Fatalf("accuracy %v on separable LUCS data", res.Mean)
	}
}

func TestLoadCSVFromTestdata(t *testing.T) {
	// The classic Quinlan "play tennis" weather data, as a committed
	// fixture exercising the real-file path.
	f, err := os.Open("testdata/weather.csv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := LoadCSV(f, "weather")
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRows() != 14 || d.NumAttrs() != 4 || d.NumClasses() != 2 {
		t.Fatalf("shape (%d,%d,%d)", d.NumRows(), d.NumAttrs(), d.NumClasses())
	}
	clf := NewClassifier(PatFS, C45, WithMinSupport(0.3))
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := clf.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	pred, err := predict(clf, d, rows)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range pred {
		if pred[i] == d.Labels[i] {
			correct++
		}
	}
	if correct < 10 {
		t.Fatalf("training accuracy %d/14 too low", correct)
	}
}

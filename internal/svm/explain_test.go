package svm

import (
	"math"
	"testing"
)

// explainFixture is a linearly separable sparse binary problem: class 0
// rows carry feature 0, class 1 rows carry feature 1, with noise
// features 2..4 scattered over both.
func explainFixture() (x [][]int32, y []int) {
	x = [][]int32{
		{0, 2}, {0, 3}, {0, 2, 4}, {0},
		{1, 2}, {1, 4}, {1, 3, 4}, {1},
	}
	y = []int{0, 0, 0, 0, 1, 1, 1, 1}
	return x, y
}

func TestExplainPredictMatchesPredict(t *testing.T) {
	x, y := explainFixture()
	m, err := Train(x, y, 2, Config{NumFeatures: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		ex := m.ExplainPredict(row)
		if want := predict(m, row); ex.Class != want {
			t.Fatalf("row %d: ExplainPredict class %d, Predict %d", i, ex.Class, want)
		}
		if ex.Class != y[i] {
			t.Fatalf("row %d: separable fixture misclassified as %d", i, ex.Class)
		}
		if len(ex.Pairs) != 1 {
			t.Fatalf("row %d: %d pairs for a 2-class model, want 1", i, len(ex.Pairs))
		}
		if ex.FeatureWeights == nil {
			t.Fatalf("row %d: linear model produced no FeatureWeights", i)
		}
	}
}

// TestExplainLinearDecomposition: for every linear pair, bias plus the
// per-feature contributions must reconstruct the decision value
// exactly.
func TestExplainLinearDecomposition(t *testing.T) {
	x, y := explainFixture()
	m, err := Train(x, y, 2, Config{NumFeatures: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		for _, pd := range m.ExplainPredict(row).Pairs {
			if pd.FeatureContrib == nil {
				t.Fatalf("row %d: linear pair %v has nil FeatureContrib", i, pd.Classes)
			}
			sum := pd.Bias
			for _, w := range pd.FeatureContrib {
				sum += w
			}
			if math.Abs(sum-pd.Decision) > 1e-9 {
				t.Fatalf("row %d pair %v: bias+contribs = %v, decision = %v",
					i, pd.Classes, sum, pd.Decision)
			}
		}
	}
}

// TestExplainDiscriminativeFeatureDominates: the class-0 indicator
// feature must push toward class 0, the class-1 indicator toward
// class 1.
func TestExplainDiscriminativeFeatureDominates(t *testing.T) {
	x, y := explainFixture()
	m, err := Train(x, y, 2, Config{NumFeatures: 5})
	if err != nil {
		t.Fatal(err)
	}
	ex0 := m.ExplainPredict([]int32{0})
	if w := ex0.FeatureWeights[0]; w <= 0 {
		t.Fatalf("feature 0 weight %v toward predicted class 0, want positive evidence", w)
	}
	ex1 := m.ExplainPredict([]int32{1})
	if w := ex1.FeatureWeights[1]; w <= 0 {
		t.Fatalf("feature 1 weight %v toward predicted class 1, want positive evidence", w)
	}
	_ = y
}

// TestExplainThreeClass: one-vs-one voting exposes a pair per class
// combination and still matches Predict.
func TestExplainThreeClass(t *testing.T) {
	x := [][]int32{
		{0}, {0, 3}, {0, 4},
		{1}, {1, 3}, {1, 4},
		{2}, {2, 3}, {2, 4},
	}
	y := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	m, err := Train(x, y, 3, Config{NumFeatures: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range x {
		ex := m.ExplainPredict(row)
		if want := predict(m, row); ex.Class != want {
			t.Fatalf("row %d: explain class %d != predict %d", i, ex.Class, want)
		}
		if len(ex.Pairs) != 3 {
			t.Fatalf("row %d: %d pairs for 3 classes, want 3", i, len(ex.Pairs))
		}
		votes := 0
		for _, v := range ex.Votes {
			votes += v
		}
		if votes != 3 {
			t.Fatalf("row %d: votes %v do not sum to the pair count", i, ex.Votes)
		}
	}
}

// TestExplainRBFNoContrib: non-linear kernels report decisions and
// biases only.
func TestExplainRBFNoContrib(t *testing.T) {
	x, y := explainFixture()
	m, err := Train(x, y, 2, Config{NumFeatures: 5, Kernel: Kernel{Type: RBF}})
	if err != nil {
		t.Fatal(err)
	}
	ex := m.ExplainPredict(x[0])
	for _, pd := range ex.Pairs {
		if pd.FeatureContrib != nil {
			t.Fatal("RBF pair must not claim an additive feature decomposition")
		}
	}
	if ex.FeatureWeights != nil {
		t.Fatal("RBF explanation must have nil FeatureWeights")
	}
	if want := predict(m, x[0]); ex.Class != want {
		t.Fatalf("explain class %d != predict %d", ex.Class, want)
	}
}

func TestExplainSingleClass(t *testing.T) {
	m, err := Train([][]int32{{0}, {1}}, []int{0, 0}, 1, Config{NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := m.ExplainPredict([]int32{0})
	if ex.Class != 0 || len(ex.Pairs) != 0 {
		t.Fatalf("degenerate model explanation: %+v", ex)
	}
}

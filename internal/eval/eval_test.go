package eval

import (
	"context"
	"errors"
	"math"
	"testing"

	"dfpc/internal/dataset"
)

// approx compares floats that are exact in the tests' arithmetic; the
// epsilon keeps the comparisons robust if the implementation reorders
// its floating-point operations.
func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// majorityPipeline predicts the majority class of its training rows.
type majorityPipeline struct{ class int }

func (p *majorityPipeline) FitContext(_ context.Context, d *dataset.Dataset, rows []int) error {
	counts := make([]int, d.NumClasses())
	for _, r := range rows {
		counts[d.Labels[r]]++
	}
	p.class = 0
	for c, n := range counts {
		if n > counts[p.class] {
			p.class = c
		}
	}
	return nil
}

func (p *majorityPipeline) PredictBatch(_ context.Context, d *dataset.Dataset, rows []int, out []int) error {
	for i := range out {
		out[i] = p.class
	}
	return nil
}

// oraclePipeline predicts the true label (upper bound pipeline).
type oraclePipeline struct{}

func (oraclePipeline) FitContext(context.Context, *dataset.Dataset, []int) error { return nil }
func (oraclePipeline) PredictBatch(_ context.Context, d *dataset.Dataset, rows []int, out []int) error {
	predictTruth(d, rows, out)
	return nil
}

// predictTruth writes each row's true label into out: the predict step
// of the fakes that stand for a perfect model.
func predictTruth(d *dataset.Dataset, rows []int, out []int) {
	for i, r := range rows {
		out[i] = d.Labels[r]
	}
}

// failingPipeline always errors.
type failingPipeline struct{}

func (failingPipeline) FitContext(context.Context, *dataset.Dataset, []int) error {
	return errors.New("boom")
}
func (failingPipeline) PredictBatch(context.Context, *dataset.Dataset, []int, []int) error {
	return errors.New("boom")
}

func skewedDS(n int) *dataset.Dataset {
	d := &dataset.Dataset{
		Name:    "skew",
		Attrs:   []dataset.Attribute{{Name: "a", Kind: dataset.Categorical, Values: []string{"x", "y"}}},
		Classes: []string{"maj", "min"},
	}
	for i := 0; i < n; i++ {
		d.Rows = append(d.Rows, []float64{float64(i % 2)})
		y := 0
		if i%4 == 0 {
			y = 1
		}
		d.Labels = append(d.Labels, y)
	}
	return d
}

func TestAccuracy(t *testing.T) {
	acc, err := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(acc, 0.75) {
		t.Fatalf("acc = %v, want 0.75", acc)
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Accuracy(nil, nil); err == nil {
		t.Fatal("empty should error")
	}
}

func TestCrossValidateMajority(t *testing.T) {
	d := skewedDS(100)
	res, err := CrossValidateContext(context.Background(), &majorityPipeline{}, d, 10, 1, CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FoldAccuracies) != 10 {
		t.Fatalf("folds = %d", len(res.FoldAccuracies))
	}
	// Majority class is 75% of the data; stratified folds make each test
	// fold ~75% majority.
	if math.Abs(res.Mean-0.75) > 0.05 {
		t.Fatalf("mean = %v, want ~0.75", res.Mean)
	}
}

func TestCrossValidateOracle(t *testing.T) {
	d := skewedDS(60)
	res, err := CrossValidateContext(context.Background(), oraclePipeline{}, d, 5, 2, CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(res.Mean, 1) || res.Std != 0 {
		t.Fatalf("oracle mean/std = %v/%v", res.Mean, res.Std)
	}
}

func TestCrossValidatePropagatesErrors(t *testing.T) {
	d := skewedDS(20)
	if _, err := CrossValidateContext(context.Background(), failingPipeline{}, d, 4, 1, CVOptions{}); err == nil {
		t.Fatal("expected fit error")
	}
}

func TestHoldOut(t *testing.T) {
	d := skewedDS(40)
	train, test, err := dataset.StratifiedSplit(d.Labels, 2, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := HoldOut(context.Background(), oraclePipeline{}, d, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(acc, 1) {
		t.Fatalf("oracle holdout = %v", acc)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !approx(mean, 5) {
		t.Fatalf("mean = %v", mean)
	}
	if math.Abs(std-2) > 1e-12 {
		t.Fatalf("std = %v, want 2", std)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty meanStd should be 0,0")
	}
}

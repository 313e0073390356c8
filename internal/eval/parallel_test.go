package eval

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dfpc/internal/dataset"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// cloneMajority is majorityPipeline plus the CVCloner/Observable hooks
// the concurrent fold path requires.
type cloneMajority struct {
	majorityPipeline
	obs *obs.Observer
}

func (p *cloneMajority) CloneForCV() any             { return &cloneMajority{obs: p.obs} }
func (p *cloneMajority) SetObserver(o *obs.Observer) { p.obs = o }
func (p *cloneMajority) Observer() *obs.Observer     { return p.obs }

// TestCrossValidateParallelDeterminism: fold accuracies (content AND
// order), Mean, Std, and Completed are identical at any worker count.
func TestCrossValidateParallelDeterminism(t *testing.T) {
	d := skewedDS(64)
	base, err := CrossValidateContext(context.Background(), &cloneMajority{}, d, 8, 1, CVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []parallel.Workers{2, 8, 0} {
		res, err := CrossValidateContext(context.Background(), &cloneMajority{}, d, 8, 1, CVOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(res.FoldAccuracies, base.FoldAccuracies) {
			t.Fatalf("workers=%d: fold accuracies %v, want %v", w, res.FoldAccuracies, base.FoldAccuracies)
		}
		//vet:ignore floateq the determinism contract is bit-identity across worker counts, so exact comparison is the assertion
		if res.Mean != base.Mean || res.Std != base.Std || res.Completed != base.Completed {
			t.Fatalf("workers=%d: summary (%v,%v,%d) diverges from (%v,%v,%d)",
				w, res.Mean, res.Std, res.Completed, base.Mean, base.Std, base.Completed)
		}
	}
}

// TestCrossValidateParallelSpans: concurrent folds record one cv-fold
// span each on the shared observer, every fold number exactly once.
func TestCrossValidateParallelSpans(t *testing.T) {
	d := skewedDS(40)
	o := obs.New()
	p := &cloneMajority{obs: o}
	if _, err := CrossValidateContext(context.Background(), p, d, 5, 1, CVOptions{Obs: o, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	rep := o.Report("cv")
	folds := map[string]bool{}
	for _, sp := range rep.Spans {
		if sp.Name != "cv-fold" {
			t.Fatalf("unexpected top-level span %q", sp.Name)
		}
		for _, a := range sp.Attrs {
			if a.Key == "fold" {
				folds[a.Value] = true
			}
		}
	}
	if len(folds) != 5 {
		t.Fatalf("recorded %d distinct cv-fold spans, want 5: %v", len(folds), folds)
	}
	// The original pipeline's observer must be restored post-CV.
	if p.obs != o {
		t.Fatal("original pipeline's observer was not restored after parallel CV")
	}
}

// cloneFailAt fails on folds whose first test row index is even,
// exercising ContinueOnError under concurrency.
type cloneFail struct {
	cloneMajority
	n *atomic.Int64
}

func (p *cloneFail) CloneForCV() any { return &cloneFail{n: p.n} }
func (p *cloneFail) FitContext(ctx context.Context, d *dataset.Dataset, rows []int) error {
	if p.n.Add(1)%2 == 1 {
		return errors.New("boom")
	}
	return p.cloneMajority.FitContext(ctx, d, rows)
}

// TestCrossValidateParallelContinueOnError: isolated fold failures
// still leave honest statistics when folds run concurrently.
func TestCrossValidateParallelContinueOnError(t *testing.T) {
	d := skewedDS(48)
	var n atomic.Int64
	res, err := CrossValidateContext(context.Background(), &cloneFail{n: &n}, d, 6, 1,
		CVOptions{Workers: 3, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+len(res.Failures) != 6 {
		t.Fatalf("completed %d + failed %d != 6 folds", res.Completed, len(res.Failures))
	}
	if len(res.Failures) == 0 || res.Completed == 0 {
		t.Fatalf("expected a mix of failures and completions, got %d/%d", res.Completed, len(res.Failures))
	}
	if res.Completed != len(res.FoldAccuracies) {
		t.Fatalf("Completed %d != len(FoldAccuracies) %d", res.Completed, len(res.FoldAccuracies))
	}
}

// cloneFailFirst fails to fit exactly the first fold: the one whose
// training rows lack that fold's first test row.
type cloneFailFirst struct {
	cloneMajority
	bad int
}

func (p *cloneFailFirst) CloneForCV() any { return &cloneFailFirst{bad: p.bad} }
func (p *cloneFailFirst) FitContext(ctx context.Context, d *dataset.Dataset, rows []int) error {
	if !slices.Contains(rows, p.bad) {
		return errors.New("first fold bomb")
	}
	return p.cloneMajority.FitContext(ctx, d, rows)
}

// TestCrossValidateParallelFailureSemantics: an aborted run reports the
// same error text and partial statistics at any worker count.
func TestCrossValidateParallelFailureSemantics(t *testing.T) {
	d := skewedDS(40)
	const k, seed = 4, 1
	folds, err := dataset.StratifiedKFold(d.Labels, d.NumClasses(), k, seed)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		canceled bool
		p        func() Pipeline
	}{
		{"pre-canceled", true, func() Pipeline { return &cloneMajority{} }},
		{"first fold fails", false, func() Pipeline { return &cloneFailFirst{bad: folds[0][0]} }},
	}
	for _, c := range cases {
		var base *CVResult
		var baseErr string
		for _, w := range []parallel.Workers{1, 2, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			if c.canceled {
				cancel()
			}
			res, err := CrossValidateContext(ctx, c.p(), d, k, seed, CVOptions{Workers: w})
			cancel()
			if err == nil || res == nil {
				t.Fatalf("%s, workers=%d: got (%v, %v), want an aborted run with partial stats", c.name, w, res, err)
			}
			if base == nil {
				base, baseErr = res, err.Error()
				continue
			}
			if err.Error() != baseErr {
				t.Fatalf("%s, workers=%d: error %q, want %q (workers=1)", c.name, w, err, baseErr)
			}
			if res.Completed != base.Completed ||
				!reflect.DeepEqual(res.FoldAccuracies, base.FoldAccuracies) ||
				!reflect.DeepEqual(res.Failures, base.Failures) {
				t.Fatalf("%s, workers=%d: partial result %+v, want %+v (workers=1)", c.name, w, res, base)
			}
		}
	}
}

// TestCrossValidateParallelProgressOrder: concurrent folds report
// progress once per fold, in fold order.
func TestCrossValidateParallelProgressOrder(t *testing.T) {
	d := skewedDS(64)
	for _, w := range []parallel.Workers{1, 8} {
		var got []int
		opt := CVOptions{Workers: w, Progress: func(fold, _ int, _ time.Duration, _ float64) {
			got = append(got, fold)
		}}
		if _, err := CrossValidateContext(context.Background(), &cloneMajority{}, d, 8, 1, opt); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want := []int{1, 2, 3, 4, 5, 6, 7, 8}; !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: progress folds %v, want %v", w, got, want)
		}
	}
}

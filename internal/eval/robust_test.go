package eval

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dfpc/internal/dataset"
	"dfpc/internal/guard"
)

// panicOncePipeline panics on its first Fit call and predicts the true
// label afterwards — one poisoned fold in an otherwise perfect run.
type panicOncePipeline struct{ calls int }

func (p *panicOncePipeline) FitContext(context.Context, *dataset.Dataset, []int) error {
	p.calls++
	if p.calls == 1 {
		panic("fold bomb")
	}
	return nil
}

func (p *panicOncePipeline) PredictBatch(_ context.Context, d *dataset.Dataset, rows []int, out []int) error {
	predictTruth(d, rows, out)
	return nil
}

func TestFoldPanicIsolatedUnderContinueOnError(t *testing.T) {
	d := skewedDS(100)
	res, err := CrossValidateContext(context.Background(), &panicOncePipeline{}, d, 5, 1, CVOptions{ContinueOnError: true})
	if err != nil {
		t.Fatalf("isolated run should succeed, got %v", err)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("failures = %d, want 1", len(res.Failures))
	}
	f := res.Failures[0]
	if !f.Panicked || f.Fold != 1 {
		t.Fatalf("failure = %+v, want panicked fold 1", f)
	}
	if !strings.Contains(f.Err.Error(), "fold bomb") {
		t.Fatalf("failure error %q does not carry the panic value", f.Err)
	}
	if res.Completed != 4 || len(res.FoldAccuracies) != 4 {
		t.Fatalf("completed = %d (%d accuracies), want 4", res.Completed, len(res.FoldAccuracies))
	}
	if !approx(res.Mean, 1) {
		t.Fatalf("mean over completed folds = %v, want 1 (oracle)", res.Mean)
	}
}

func TestFoldPanicAbortsWithoutContinueOnError(t *testing.T) {
	d := skewedDS(100)
	res, err := CrossValidateContext(context.Background(), &panicOncePipeline{}, d, 5, 1, CVOptions{})
	if err == nil {
		t.Fatal("panicking fold without isolation should abort the run")
	}
	// Aborted runs still return the partial statistics of the folds
	// that completed before the abort (here: none — fold 1 panicked).
	if res == nil || res.Completed != 0 {
		t.Fatalf("aborted run result = %+v, want empty partial stats", res)
	}
	if !strings.Contains(err.Error(), "fold bomb") {
		t.Fatalf("error %q does not carry the panic value", err)
	}
}

func TestAllFoldsFailedIsPartialResult(t *testing.T) {
	d := skewedDS(40)
	res, err := CrossValidateContext(context.Background(), failingPipeline{}, d, 4, 1, CVOptions{ContinueOnError: true})
	if !errors.Is(err, guard.ErrPartialResult) {
		t.Fatalf("err = %v, want guard.ErrPartialResult", err)
	}
	if res == nil || len(res.Failures) != 4 || res.Completed != 0 {
		t.Fatalf("result = %+v, want 4 failures and 0 completed", res)
	}
}

func TestCancellationOverridesIsolation(t *testing.T) {
	d := skewedDS(40)
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel after the first fold completes; the run must then abort
	// even though ContinueOnError is set.
	opt := CVOptions{
		ContinueOnError: true,
		Progress: func(fold, total int, _ time.Duration, _ float64) {
			if fold == 1 {
				cancel()
			}
		},
	}
	res, err := CrossValidateContext(ctx, oraclePipeline{}, d, 4, 1, opt)
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	// Cancellation aborts the run but the folds completed before the
	// signal are still reported, so a CLI can print partial stats.
	if res == nil || res.Completed != 1 || !approx(res.Mean, 1) {
		t.Fatalf("canceled run partial stats = %+v, want 1 completed oracle fold", res)
	}
}

func TestPreCanceledContextFailsFast(t *testing.T) {
	d := skewedDS(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := &panicOncePipeline{}
	_, err := CrossValidateContext(ctx, p, d, 4, 1, CVOptions{ContinueOnError: true})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if p.calls != 0 {
		t.Fatalf("pipeline ran %d folds under a pre-canceled context", p.calls)
	}
}

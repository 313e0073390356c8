// Package eval provides the experimental protocol of the paper's
// Section 4: accuracy, stratified cross-validation over a pluggable
// train/predict pipeline, and a paired t-test between two CV runs.
package eval

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"dfpc/internal/dataset"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// Pipeline abstracts one classification pipeline: fit on training rows
// of a dataset, then predict test rows. The context reaches into the
// pipeline, so cancellation stops mining and learning inside a fold
// rather than only between folds. core.Pipeline implements it.
type Pipeline interface {
	// FitContext trains on the given dataset rows.
	FitContext(ctx context.Context, d *dataset.Dataset, rows []int) error
	// PredictBatch writes the predicted class index of each given row
	// into out, which has len(rows) slots.
	PredictBatch(ctx context.Context, d *dataset.Dataset, rows []int, out []int) error
}

// CVCloner is the opt-in hook for concurrent cross-validation: a
// pipeline that can produce independent copies of itself, each safe to
// fit in its own goroutine. CloneForCV returns `any` (asserted to
// Pipeline by the harness) so implementations outside this package need
// no import of eval. Pipelines without it always run folds
// sequentially, whatever CVOptions.Workers says. core.Pipeline
// implements it.
type CVCloner interface {
	CloneForCV() any
}

// ObservablePipeline lets the CV harness install a per-fold observer
// fork on the pipeline each fold fits, so the fold's fit/predict spans
// nest under its cv-fold span and concurrent folds never share one span
// stack. core.Pipeline implements it.
type ObservablePipeline interface {
	SetObserver(*obs.Observer)
	Observer() *obs.Observer
}

// Accuracy returns the fraction of positions where pred equals truth.
func Accuracy(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("eval: %d predictions for %d labels", len(pred), len(truth))
	}
	if len(pred) == 0 {
		return 0, fmt.Errorf("eval: empty prediction set")
	}
	correct := 0
	for i := range pred {
		if pred[i] == truth[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred)), nil
}

// CVResult summarizes a cross-validation run. When folds were isolated
// with ContinueOnError, FoldAccuracies, Mean, and Std cover only the
// completed folds; Failures records the rest.
type CVResult struct {
	FoldAccuracies []float64
	Mean           float64
	Std            float64
	TrainTime      time.Duration // summed over folds
	TestTime       time.Duration
	// Completed is the number of folds that finished; it equals
	// len(FoldAccuracies) and is len(folds)−len(Failures).
	Completed int
	// Failures records the folds that errored or panicked (empty for a
	// clean run, and always empty without CVOptions.ContinueOnError).
	Failures []FoldError
}

// FoldError records one failed cross-validation fold.
type FoldError struct {
	// Fold is the 1-based fold number.
	Fold int
	// Err is the fold's failure; for a recovered panic it wraps the
	// panic value.
	Err error
	// Panicked marks failures recovered from a panic rather than a
	// returned error.
	Panicked bool
}

func (e FoldError) Error() string {
	kind := "error"
	if e.Panicked {
		kind = "panic"
	}
	return fmt.Sprintf("fold %d %s: %v", e.Fold, kind, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e FoldError) Unwrap() error { return e.Err }

// ProgressFunc is notified after each completed cross-validation fold:
// fold is 1-based, total is the fold count, elapsed covers the fold's
// fit plus predict, and accuracy is the fold's test accuracy. Long CV
// runs use it to report liveness ("fold 3/10 done in 1.2s").
type ProgressFunc func(fold, total int, elapsed time.Duration, accuracy float64)

// CVOptions carries the optional observability hooks of a CV run.
type CVOptions struct {
	// Obs, when non-nil, records one cv-fold span per fold on a fork of
	// Obs. An ObservablePipeline records each fold's fit/predict spans
	// on that fork, so they nest under the fold span; its own observer
	// is restored when the run returns.
	Obs *obs.Observer
	// Progress, when non-nil, is called after every fold.
	Progress ProgressFunc
	// Log, when non-nil, receives one structured DEBUG record per
	// completed fold and a WARN per isolated fold failure and per
	// partial-result run. Nil disables logging.
	Log *slog.Logger
	// ContinueOnError isolates folds: an erroring or panicking fold is
	// recorded in CVResult.Failures and the remaining folds still run.
	// Mean/Std are then honest statistics over the completed folds
	// only. Context cancellation still aborts the whole run — a
	// canceled fold is not an isolated failure. Without it, the first
	// fold failure aborts the run (panics are still recovered into the
	// returned error rather than crashing the caller).
	ContinueOnError bool
	// Workers bounds the fold fan-out (0 = GOMAXPROCS, 1 = sequential).
	// Folds run concurrently only when the pipeline implements CVCloner
	// (each fold fits its own clone); results are merged in fold order,
	// so FoldAccuracies, Mean, Std, the summed Train/TestTime, and the
	// abort error are identical at any worker count. Progress and
	// per-fold log records are emitted live, in fold order, at any
	// worker count: a fold's are emitted once it and every earlier fold
	// have finished.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection at
	// the start of every fold (point eval.fold). An injected panic is
	// recovered by the fold isolation machinery like any pipeline
	// panic. Nil is free.
	Faults *faults.Registry
	// Checkpoint, when non-nil, persists each completed fold's outcome
	// as a durable artifact and replays completed folds on a later run
	// instead of re-fitting them. The final fold always re-executes so
	// the pipeline's post-CV fitted state (stats, explanations) is live
	// exactly as in an uninterrupted run; determinism of the pipeline
	// guarantees the re-run reproduces the checkpointed accuracy.
	// Failed folds are never checkpointed.
	Checkpoint *Checkpointer
}

// foldOutcome is the result of one executed fold, independent of any
// shared CV state so folds can run concurrently and merge in order.
type foldOutcome struct {
	ran       bool // the outcome has arrived at the merge cursor
	acc       float64
	trainTime time.Duration
	testTime  time.Duration
	elapsed   time.Duration
	panicked  bool
	err       error
}

// runFold executes one fold end to end, converting panics in the
// pipeline into errors so a single bad fold cannot crash a CV sweep.
func runFold(ctx context.Context, p Pipeline, d *dataset.Dataset, train, test []int, fr *faults.Registry) (out foldOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.err = fmt.Errorf("recovered panic: %v", r)
		}
	}()
	if err := fr.Hit(faults.EvalFold); err != nil {
		out.err = err
		return out
	}
	//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
	t0 := time.Now()
	if err := p.FitContext(ctx, d, train); err != nil {
		out.err = fmt.Errorf("fit: %w", err)
		return out
	}
	//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
	out.trainTime = time.Since(t0)
	//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
	t0 = time.Now()
	pred := make([]int, len(test))
	if err := p.PredictBatch(ctx, d, test, pred); err != nil {
		out.err = fmt.Errorf("predict: %w", err)
		return out
	}
	//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
	out.testTime = time.Since(t0)
	truth := make([]int, len(test))
	for i, r := range test {
		truth[i] = d.Labels[r]
	}
	out.acc, out.err = Accuracy(pred, truth)
	return out
}

// CrossValidateContext runs stratified k-fold cross validation of the
// pipeline on the dataset (the paper's protocol: "Each dataset is
// partitioned into ten parts evenly. Each time, one part is used for
// test and the other nine are used for training").
//
// The context applies to the whole run: cancellation aborts between and
// inside folds, regardless of opt.ContinueOnError. With
// opt.ContinueOnError, non-cancellation fold failures are isolated into
// CVResult.Failures and the remaining folds still run; if no fold
// completes, the returned error satisfies
// errors.Is(err, guard.ErrPartialResult).
//
// An aborting run (cancellation, or a fold failure without
// ContinueOnError) returns its error, numbered with the fold that
// aborted, together with a non-nil result carrying the statistics of
// the folds that completed before the abort, so callers can report
// partial progress — e.g. a CLI interrupted by SIGINT. The error still
// marks the run as incomplete.
func CrossValidateContext(ctx context.Context, p Pipeline, d *dataset.Dataset, k int, seed int64, opt CVOptions) (*CVResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	folds, err := dataset.StratifiedKFold(d.Labels, d.NumClasses(), k, seed)
	if err != nil {
		return nil, err
	}
	last := len(folds) - 1
	// aborts reports whether a fold failure ends the run. Cancellation
	// is a run-level event, not a fold defect: it aborts even under
	// ContinueOnError.
	aborts := func(err error) bool {
		return err != nil && (ctx.Err() != nil || !opt.ContinueOnError)
	}
	res := &CVResult{}
	// merge folds one outcome into res. The loop below calls it strictly
	// in fold order, which is what keeps FoldAccuracies, Mean/Std, the
	// summed durations, and the abort error independent of the worker
	// count. A non-nil return aborts the run.
	merge := func(f int, out foldOutcome) error {
		res.TrainTime += out.trainTime
		res.TestTime += out.testTime
		if aborts(out.err) {
			return fmt.Errorf("eval: fold %d: %w", f+1, out.err)
		}
		if out.err != nil {
			res.Failures = append(res.Failures, FoldError{Fold: f + 1, Err: out.err, Panicked: out.panicked})
			opt.Obs.Counter("cv.fold_failures").Inc()
			if opt.Log != nil {
				opt.Log.Warn("cross-validation fold failed; continuing",
					slog.Int("fold", f+1),
					slog.Int("total", len(folds)),
					slog.Bool("panicked", out.panicked),
					slog.String("err", out.err.Error()))
			}
			return nil
		}
		res.FoldAccuracies = append(res.FoldAccuracies, out.acc)
		if opt.Log != nil {
			opt.Log.Debug("cross-validation fold done",
				slog.Int("fold", f+1),
				slog.Int("total", len(folds)),
				slog.Duration("elapsed", out.elapsed),
				slog.Float64("accuracy", out.acc))
		}
		if opt.Progress != nil {
			opt.Progress(f+1, len(folds), out.elapsed, out.acc)
		}
		return nil
	}

	// Folds fan out only over independent clones (and, when opt.Obs is
	// set, clones that take an observer fork); any other pipeline runs
	// its folds in order on the caller's goroutine.
	workers := 1
	cloner, canClone := p.(CVCloner)
	op, canObserve := p.(ObservablePipeline)
	if canClone && (opt.Obs == nil || canObserve) {
		workers = min(opt.Workers.Resolve(), len(folds))
	}
	// Every fold but the last fits a clone when folds run concurrently;
	// the last fold always fits the original pipeline so its post-CV
	// state (stats, explanations) is the same at any worker count.
	// Clone before fanning out: the last fold installs its observer fork
	// on the original, and a clone taken concurrently would race with
	// that write.
	var clones []Pipeline
	if workers > 1 {
		clones = make([]Pipeline, last)
		for f := range clones {
			c := cloner.CloneForCV()
			cp, ok := c.(Pipeline)
			if !ok {
				return nil, fmt.Errorf("eval: CloneForCV returned %T, not an eval.Pipeline", c)
			}
			clones[f] = cp
		}
	}
	if canObserve && opt.Obs != nil {
		defer op.SetObserver(op.Observer())
	}

	// fold executes (or replays) fold f. It records on its own observer
	// fork, so span trees stay intact at any worker count and counters
	// land in the shared registry.
	fold := func(f int) foldOutcome {
		if err := guard.New(ctx, guard.Limits{}).CheckNow(); err != nil {
			return foldOutcome{err: err}
		}
		fo := opt.Obs.Fork()
		// The final fold never restores: re-executing it leaves the
		// pipeline's fitted state identical to an uninterrupted run, and
		// the pipeline's determinism contract makes the re-run reproduce
		// the checkpointed outcome exactly.
		if opt.Checkpoint != nil && f != last {
			if out, ok := opt.Checkpoint.LoadFold(f); ok {
				fo.Start("cv-fold").Attr("fold", f+1).Attr("restored", true).End()
				return out
			}
		}
		fp := p
		if f < len(clones) {
			fp = clones[f]
		}
		if fop, ok := fp.(ObservablePipeline); ok && opt.Obs != nil {
			fop.SetObserver(fo)
		}
		train, test := dataset.TrainTestFromFolds(folds, f)
		sp := fo.Start("cv-fold").
			Attr("fold", f+1).Attr("train", len(train)).Attr("test", len(test))
		//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
		foldStart := time.Now()
		out := runFold(ctx, fp, d, train, test, opt.Faults)
		//vet:ignore nondeterm fold wall-time telemetry; timings are reported, never byte-compared
		out.elapsed = time.Since(foldStart)
		// A checkpoint that cannot be written degrades the fold to failed
		// rather than being silently dropped (a later resume would
		// otherwise re-execute under a different schedule than the
		// journal records).
		if opt.Checkpoint != nil && out.err == nil {
			if err := opt.Checkpoint.SaveFold(f, out); err != nil {
				out.err = fmt.Errorf("checkpoint fold %d: %w", f+1, err)
			}
		}
		if out.err != nil {
			sp.Attr("error", out.err.Error()).End()
		} else {
			sp.Attr("accuracy", fmt.Sprintf("%.4f", out.acc)).End()
		}
		return out
	}

	// Each arriving outcome advances the merge cursor over every fold
	// whose predecessors have all arrived, so progress and fold log
	// records stream live and in fold order. One worker at a time holds
	// the merger role and runs merge — and so the caller's Progress and
	// Log — outside the lock. At one worker each fold merges as soon as
	// it finishes, exactly like a plain loop. An aborting fold stops
	// further folds from being claimed; ForEach's ascending-claim
	// guarantee means every earlier fold still arrives, so the cursor
	// always reaches the abort.
	outcomes := make([]foldOutcome, len(folds))
	var (
		mu       sync.Mutex
		next     int  // next fold to merge
		merging  bool // a worker holds the merger role
		abortErr error
	)
	err = parallel.ForEach(parallel.Workers(workers), len(folds), func(f int) error {
		out := fold(f)
		out.ran = true
		mu.Lock()
		outcomes[f] = out
		if !merging {
			merging = true
			for abortErr == nil && next < len(folds) && outcomes[next].ran {
				g, o := next, outcomes[next]
				next++
				mu.Unlock()
				err := merge(g, o)
				mu.Lock()
				abortErr = err
			}
			merging = false
		}
		err := abortErr
		mu.Unlock()
		if err != nil {
			return err
		}
		if aborts(out.err) {
			return out.err
		}
		return nil
	})
	if abortErr != nil {
		err = abortErr
	}
	res.Completed = len(res.FoldAccuracies)
	res.Mean, res.Std = meanStd(res.FoldAccuracies)
	if err != nil {
		return res, err
	}
	if res.Completed == 0 && len(res.Failures) > 0 {
		return res, fmt.Errorf("eval: all %d folds failed (first: %w): %w",
			len(res.Failures), res.Failures[0], guard.ErrPartialResult)
	}
	if len(res.Failures) > 0 && opt.Log != nil {
		opt.Log.Warn("cross-validation completed with isolated fold failures",
			slog.Int("completed", res.Completed),
			slog.Int("failed", len(res.Failures)))
	}
	return res, nil
}

// HoldOut trains on train rows and evaluates accuracy on test rows: one
// fold of the cross-validation protocol, panics included.
func HoldOut(ctx context.Context, p Pipeline, d *dataset.Dataset, train, test []int) (float64, error) {
	out := runFold(ctx, p, d, train, test, nil)
	return out.acc, out.err
}

func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

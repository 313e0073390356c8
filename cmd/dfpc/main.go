// Command dfpc trains and evaluates a discriminative frequent-pattern
// classifier on a CSV dataset (or one of the bundled synthetic
// benchmarks).
//
// Usage:
//
//	dfpc -data heart.csv -family Pat_FS -learner svm -folds 10
//	dfpc -dataset austral -family Pat_FS -minsup 0.1
//	dfpc -list                 # list bundled datasets
//
// The CSV format is: header row; the class label in the last column;
// "?" marks missing cells. Numeric columns are detected automatically
// and discretized.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dfpc"
	"dfpc/internal/durable"
	"dfpc/internal/eval"
	"dfpc/internal/modelobs"
	"dfpc/internal/parallel"
	"dfpc/internal/telemetry"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "path to a CSV dataset (class label in last column)")
		bundled   = flag.String("dataset", "", "bundled synthetic dataset name (see -list)")
		list      = flag.Bool("list", false, "list bundled dataset names and exit")
		family    = flag.String("family", "Pat_FS", "model family: Item_All, Item_FS, Item_RBF, Pat_All, Pat_FS")
		learner   = flag.String("learner", "svm", "learner: svm or c45")
		folds     = flag.Int("folds", 10, "cross-validation folds")
		seed      = flag.Int64("seed", 1, "random seed for folds and synthetic data")
		minSup    = flag.Float64("minsup", 0, "relative min_sup; 0 derives it from -ig0 via the paper's strategy")
		ig0       = flag.Float64("ig0", 0.03, "information-gain threshold for the automatic min_sup strategy")
		coverage  = flag.Int("coverage", 3, "MMRFS database coverage δ")
		svmC      = flag.Float64("C", 1, "SVM soft-margin penalty")
		gamma     = flag.Float64("gamma", 0, "RBF γ (0 = 1/numFeatures)")
		useFisher = flag.Bool("fisher", false, "use Fisher score instead of information gain as MMRFS relevance")
		explain   = flag.Int("explain", 0, "print the top-N selected patterns; with -load, print per-prediction explanations for the first N rows as JSONL")
		saveTo    = flag.String("save", "", "after evaluation, train on the full dataset and save the model here")
		loadFrom  = flag.String("load", "", "load a saved model and predict the dataset (no training)")
		dumpCSV   = flag.String("dump-csv", "", "write the loaded dataset as CSV here and exit (for deriving shifted test splits)")

		driftWarn   = flag.Float64("drift-warn", 0, "track prediction drift and log WARN when live-vs-baseline PSI crosses this threshold (0 disables unless -drift-window is set; 0.25 is the conventional 'significant shift' cut)")
		driftWindow = flag.Int("drift-window", 0, "predictions per drift sketch window (0 = 256 when drift tracking is on)")
		driftTo     = flag.String("drift-report", "", "write the final drift report (the /drift payload) as JSON here; needs -drift-warn or -drift-window")

		stageTimeout = flag.Duration("stage-timeout", 0, "per-stage wall-clock bound within each fit (0 = unbounded)")
		contOnError  = flag.Bool("continue-on-error", false, "isolate failing CV folds and report statistics over the completed ones")
		workers      = flag.Int("workers", 1, "worker goroutines for CV folds, mining, MMRFS, and SVM (0 = all CPUs; results are identical at any count)")
		checkpointTo = flag.String("checkpoint", "", "write per-fold checkpoints to this directory (replaying any valid ones already there)")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, n := range dfpc.DatasetNames() {
			fmt.Println(n)
		}
		return
	}
	ctx, ses, err := tf.Start("dfpc")
	if err != nil {
		ses.Fail(err)
	}
	defer ses.Close()
	drift := driftConfig{warn: *driftWarn, window: *driftWindow, path: *driftTo}
	if *loadFrom != "" && *explain > 0 && drift != (driftConfig{}) {
		// PredictExplain streams nothing into the tracker, so the run
		// would end without a drift report.
		ses.Fail("-load with -explain tracks no drift; drop -drift-warn, -drift-window and -drift-report")
	}

	d, err := loadData(*dataPath, *bundled, *seed)
	if err != nil {
		ses.Fail(err)
	}

	if *dumpCSV != "" {
		if err := durable.WriteAtomic(*dumpCSV, ses.Faults, func(w io.Writer) error {
			return dfpc.SaveCSV(w, d)
		}); err != nil {
			ses.Fail(err)
		}
		fmt.Printf("dataset written to %s\n", *dumpCSV)
		return
	}

	if *loadFrom != "" {
		if err := predictOnly(ctx, *loadFrom, d, *explain, ses, drift); err != nil {
			ses.Fail(err)
		}
		return
	}

	fam, err := parseFamily(*family)
	if err != nil {
		ses.Fail(err)
	}
	lrn, err := parseLearner(*learner)
	if err != nil {
		ses.Fail(err)
	}

	opts := []dfpc.Option{
		dfpc.WithIGThreshold(*ig0),
		dfpc.WithCoverage(*coverage),
		dfpc.WithSVMC(*svmC),
	}
	if *minSup > 0 {
		opts = append(opts, dfpc.WithMinSupport(*minSup))
	} else {
		opts = append(opts, dfpc.WithMinSupport(-1)) // automatic strategy
	}
	if *gamma > 0 {
		opts = append(opts, dfpc.WithRBFGamma(*gamma))
	}
	if *useFisher {
		opts = append(opts, dfpc.WithFisherRelevance())
	}
	if *stageTimeout > 0 {
		opts = append(opts, dfpc.WithStageTimeout(*stageTimeout))
	}
	opts = append(opts, dfpc.WithWorkers(*workers))

	clf := dfpc.NewClassifier(fam, lrn, opts...)
	clf.SetFaults(ses.Faults)
	clf.SetLogger(ses.Log)

	// CV folds share the tracker through the config clone; the first
	// fitted fold binds the baseline, the later folds' predictions
	// stream into the same sketch ring.
	tracker := drift.attach(clf, ses)

	var ck *eval.Checkpointer
	if *checkpointTo != "" {
		// The key binds checkpoints to everything that determines fold
		// outcomes; worker count is deliberately absent (results are
		// identical at any count), so runs may resume at a different one.
		key := eval.CVKey("dfpc-cv", d.Name, d.NumRows(), *folds, *seed,
			fam.String(), lrn.String(), *minSup, *ig0, *coverage,
			*svmC, *gamma, *useFisher, *stageTimeout)
		ck, err = eval.NewCheckpointer(*checkpointTo, key, ses.Faults)
		if err != nil {
			ses.Fail(err)
		}
		if done := ck.CompletedFolds(*folds); len(done) > 0 {
			ses.Log.Info("resuming from checkpoints",
				"dir", *checkpointTo, "completed_folds", len(done), "total_folds", *folds)
		}
	}

	res, err := dfpc.CrossValidateContext(ctx, clf, d, *folds, *seed, dfpc.CVOptions{
		Obs:             ses.Obs,
		Log:             ses.Log,
		ContinueOnError: *contOnError,
		Workers:         parallel.Workers(*workers),
		Faults:          ses.Faults,
		Checkpoint:      ck,
	})
	if err != nil {
		// An aborted run still carries the statistics of the folds that
		// finished; surface them (and the resume hint) before failing.
		if res != nil && res.Completed > 0 {
			fmt.Printf("interrupted: %d/%d folds completed, partial accuracy %.2f%% ± %.2f\n",
				res.Completed, *folds, 100*res.Mean, 100*res.Std)
			if ck != nil {
				fmt.Printf("checkpoints in %s; rerun with -checkpoint %s to continue\n", ck.Dir(), ck.Dir())
			}
			ses.Journal(telemetry.Record{
				Kind:     "cv",
				Dataset:  d.Name,
				Folds:    res.Completed,
				Accuracy: res.Mean, AccuracyStd: res.Std,
				Warnings: []string{"interrupted: " + err.Error()},
			})
		}
		switch {
		case ctx.Err() != nil && errors.Is(err, dfpc.ErrDeadline):
			ses.Fail("run exceeded -timeout:", err)
		case errors.Is(err, dfpc.ErrDeadline):
			ses.Fail("stage exceeded -stage-timeout:", err)
		case errors.Is(err, dfpc.ErrCanceled):
			ses.Fail("run canceled:", err)
		default:
			ses.Fail(err)
		}
	}

	fmt.Printf("dataset     %s (%d rows, %d attrs, %d classes)\n",
		d.Name, d.NumRows(), d.NumAttrs(), d.NumClasses())
	fmt.Printf("model       %v + %v\n", fam, lrn)
	fmt.Printf("accuracy    %.2f%% ± %.2f (%d-fold CV)\n", 100*res.Mean, 100*res.Std, *folds)
	if len(res.Failures) > 0 {
		// The individual failures were already logged as WARN records by
		// the CV harness; the summary line keeps stdout self-contained.
		fmt.Printf("folds       %d/%d completed; statistics cover completed folds only\n",
			res.Completed, res.Completed+len(res.Failures))
	}
	fmt.Printf("train time  %v   test time  %v\n", res.TrainTime.Round(1e6), res.TestTime.Round(1e6))
	if clf.Stats.MinSupport > 0 {
		fmt.Printf("min_sup     %.4f (last fold), %d patterns mined, %d features selected\n",
			clf.Stats.MinSupport, clf.Stats.MinedCount, clf.Stats.FeatureCount)
	}
	if *explain > 0 {
		printExplanation(clf, *explain)
	}
	warnings := make([]string, 0, len(clf.Stats.Warnings)+len(res.Failures))
	for _, w := range clf.Stats.Warnings {
		warnings = append(warnings, w.String())
	}
	for _, fe := range res.Failures {
		warnings = append(warnings, fe.Error())
	}
	// The audit rides the report of the final (sequential-equivalent)
	// fold's fit, attached here rather than by the observer so parallel
	// folds can't race on it.
	var audits map[string]any
	if len(clf.Stats.SelectionAudit) > 0 {
		audits = map[string]any{"mmrfs": clf.Stats.SelectionAudit}
	}
	if err := ses.Finish(d.Name, telemetry.Record{
		Kind:    "cv",
		Dataset: d.Name,
		Config: map[string]any{
			"family":   fam.String(),
			"learner":  lrn.String(),
			"seed":     *seed,
			"min_sup":  clf.Stats.MinSupport,
			"coverage": *coverage,
			"C":        *svmC,
		},
		Folds:       *folds,
		Accuracy:    res.Mean,
		AccuracyStd: res.Std,
		WallNS:      int64(res.TrainTime + res.TestTime),
		Warnings:    warnings,
		Audits:      audits,
	}); err != nil {
		ses.Fail(err)
	}
	if err := drift.emit(tracker, d.Name, ses); err != nil {
		ses.Fail(err)
	}
	if *saveTo != "" {
		rows := make([]int, d.NumRows())
		for i := range rows {
			rows[i] = i
		}
		if err := clf.FitContext(ctx, d, rows); err != nil {
			ses.Fail("final fit:", err)
		}
		if err := durable.WriteAtomic(*saveTo, ses.Faults, func(w io.Writer) error {
			return dfpc.SaveModel(w, clf)
		}); err != nil {
			ses.Fail(err)
		}
		fmt.Printf("model saved to %s\n", *saveTo)
	}
}

// driftConfig carries the drift flags: -drift-warn and -drift-window
// turn tracking on, -drift-report names the final report's file.
type driftConfig struct {
	warn   float64
	window int
	path   string
}

// attach builds the tracker the drift flags describe and installs it on
// clf and on the debug server's /drift endpoint. It returns nil, and
// installs nothing, when drift tracking is off.
func (c driftConfig) attach(clf *dfpc.Classifier, ses *telemetry.Session) *modelobs.Tracker {
	if c.warn <= 0 && c.window <= 0 {
		return nil
	}
	t := modelobs.NewTracker(modelobs.TrackerConfig{
		WindowSize: c.window,
		WarnPSI:    c.warn,
		Obs:        ses.Obs,
		Log:        ses.Log,
	})
	t.SetFaults(ses.Faults)
	clf.SetDriftTracker(t)
	ses.EnableDrift(t)
	return t
}

// predictOnly loads a saved model and prints one predicted class per
// dataset row. With explainN > 0 it instead prints per-prediction
// explanations for the first N rows, one JSON object per line: the
// fired patterns with their measures and SVM weight contributions (or
// the C4.5 decision path). Without it, the drift flags score the
// prediction stream against the model's fit-time baseline: live on
// /drift when -listen is set, as a journal record, and as a JSON file
// via -drift-report.
func predictOnly(ctx context.Context, path string, d *dfpc.Dataset, explainN int,
	ses *telemetry.Session, drift driftConfig) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	clf, err := dfpc.LoadModel(f)
	if err != nil {
		return err
	}
	clf.SetFaults(ses.Faults)
	clf.SetLogger(ses.Log)
	if clf.Baseline() == nil && (drift.warn > 0 || drift.window > 0) {
		// A v1 artifact predates fit-time baselines; there is nothing
		// to score live predictions against.
		ses.Log.Warn("loaded model carries no baseline (saved by a pre-drift build); drift tracking disabled")
		drift = driftConfig{}
	}
	if explainN > 0 {
		if explainN > d.NumRows() {
			explainN = d.NumRows()
		}
		rows := make([]int, explainN)
		for i := range rows {
			rows[i] = i
		}
		exps, err := clf.PredictExplain(ctx, d, rows)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		for _, ex := range exps {
			if err := enc.Encode(ex); err != nil {
				return err
			}
		}
		return nil
	}
	tracker := drift.attach(clf, ses)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	// PredictBatch scores through the compiled-matcher path with one
	// scratch set for the whole file instead of per-call setup.
	pred := make([]int, len(rows))
	if err := clf.PredictBatch(ctx, d, rows, pred); err != nil {
		return err
	}
	correct := 0
	for i, p := range pred {
		fmt.Println(d.Classes[p])
		if p == d.Labels[i] {
			correct++
		}
	}
	fmt.Fprintf(os.Stderr, "accuracy vs labels in file: %.2f%%\n",
		100*float64(correct)/float64(len(pred)))
	return drift.emit(tracker, d.Name, ses)
}

// emit publishes a drift-tracked run's final report: a summary line
// on stderr, a journal record of kind "drift", and (with -drift-report)
// an atomic JSON artifact matching the /drift payload. A nil tracker —
// drift flags unset, or the model had no baseline — is a no-op.
func (c driftConfig) emit(drift *modelobs.Tracker, dataset string, ses *telemetry.Session) error {
	rep, err := drift.Report()
	if err != nil {
		return err
	}
	if rep == nil || !rep.Bound {
		return nil
	}
	fmt.Fprintf(os.Stderr, "drift: max PSI %.4f over %d predictions (%d windows, %d warnings)\n",
		rep.MaxPSI, rep.Predictions, rep.Advanced, rep.Warnings)
	ses.Journal(telemetry.Record{Kind: "drift", Dataset: dataset, Drift: rep})
	if c.path == "" {
		return nil
	}
	if err := durable.WriteAtomic(c.path, ses.Faults, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return err
	}
	ses.Log.Info("drift report written", "path", c.path)
	return nil
}

// printExplanation renders the top-n selected patterns of the last
// trained fold, ordered by information gain.
func printExplanation(clf *dfpc.Classifier, n int) {
	rep := clf.Explain()
	if len(rep) == 0 {
		fmt.Println("\nno pattern features to explain (item-only model?)")
		return
	}
	sort.Slice(rep, func(i, j int) bool { return rep[i].InfoGain > rep[j].InfoGain })
	if n > len(rep) {
		n = len(rep)
	}
	fmt.Printf("\ntop %d selected patterns (of %d, last fold):\n", n, len(rep))
	fmt.Printf("%-8s %-8s %-6s %-10s %s\n", "support", "IG", "conf", "class", "pattern")
	for _, r := range rep[:n] {
		fmt.Printf("%-8d %-8.4f %-6.2f %-10s %s\n", r.Support, r.InfoGain, r.Confidence, r.MajorityClass, r.Name)
	}
}

func loadData(path, bundled string, seed int64) (*dfpc.Dataset, error) {
	switch {
	case path != "" && bundled != "":
		return nil, fmt.Errorf("use -data or -dataset, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dfpc.LoadCSV(f, strings.TrimSuffix(path, ".csv"))
	case bundled != "":
		return dfpc.Generate(bundled, seed)
	default:
		return nil, fmt.Errorf("need -data <file.csv> or -dataset <name> (try -list)")
	}
}

func parseFamily(s string) (dfpc.Family, error) {
	for f := dfpc.ItemAll; f <= dfpc.PatFS; f++ {
		name := f.String()
		if strings.EqualFold(s, name) || strings.EqualFold(s, strings.ReplaceAll(name, "_", "")) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("unknown family %q", s)
}

func parseLearner(s string) (dfpc.Learner, error) {
	switch strings.ToLower(s) {
	case "svm":
		return dfpc.SVM, nil
	case "c45", "c4.5":
		return dfpc.C45, nil
	default:
		return 0, fmt.Errorf("unknown learner %q (want svm or c45)", s)
	}
}

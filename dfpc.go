// Package dfpc is a Go implementation of discriminative frequent
// pattern analysis for classification (Cheng, Yan, Han & Hsu, ICDE
// 2007). It classifies categorical/numeric tabular data in the feature
// space of single features plus closed frequent patterns, selected by
// the MMRFS relevance/redundancy algorithm, and learned by an SVM or a
// C4.5 decision tree.
//
// The minimal workflow:
//
//	d, _ := dfpc.Generate("austral", 1)          // or dfpc.LoadCSV(r, "mydata")
//	clf := dfpc.NewClassifier(dfpc.PatFS, dfpc.SVM)
//	res, _ := dfpc.CrossValidate(clf, d, 10, 42)
//	fmt.Printf("accuracy %.2f%%\n", 100*res.Mean)
//
// The package also exposes the paper's analytical toolkit: information
// gain and Fisher score upper bounds as functions of pattern support,
// and the min_sup-setting strategy θ* = argmax_θ (IGub(θ) ≤ IG0).
package dfpc

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/eval"
	"dfpc/internal/featsel"
	"dfpc/internal/guard"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// Dataset is a labelled tabular dataset (categorical and/or numeric
// attributes plus a class label per row).
type Dataset = dataset.Dataset

// Attribute describes one dataset column.
type Attribute = dataset.Attribute

// CVResult summarizes a cross-validation run.
type CVResult = eval.CVResult

// CVOptions carries optional cross-validation behavior: observability
// hooks, per-fold progress, fold-failure isolation (ContinueOnError),
// and concurrent fold execution (Workers).
type CVOptions = eval.CVOptions

// Workers is the worker-count knob of CVOptions.Workers and the
// parallel regions behind WithWorkers: 0 means GOMAXPROCS, 1 means
// sequential, n means at most n goroutines. Any value yields identical
// results.
type Workers = parallel.Workers

// FoldError records one failed cross-validation fold (see
// CVResult.Failures).
type FoldError = eval.FoldError

// Warning records a non-fatal degradation during Fit — a
// non-converged SMO solve. Read them from Classifier.Stats.Warnings.
type Warning = core.Warning

// Sentinel errors for bounded execution, matchable with errors.Is
// through any wrapping the pipeline applies.
var (
	// ErrCanceled reports a run stopped by context cancellation.
	ErrCanceled = guard.ErrCanceled
	// ErrDeadline reports a run stopped by a context or stage deadline.
	ErrDeadline = guard.ErrDeadline
	// ErrPartialResult reports a cross-validation run in which no fold
	// completed.
	ErrPartialResult = guard.ErrPartialResult
	// ErrPatternBudget reports mining aborted past WithMaxPatterns, at
	// the min_sup the fit asked for.
	ErrPatternBudget = mining.ErrPatternBudget
)

// FeatureReport describes one selected pattern feature: the readable
// conjunction, its support, information gain, Fisher score, and the
// class it votes for. Obtain reports from Classifier.Explain after Fit.
type FeatureReport = core.FeatureReport

// PatternStat carries the per-feature measures plotted in the paper's
// Figures 1–3 (length, support, information gain, Fisher score).
type PatternStat = core.PatternStat

// BoundPoint is one point of a theoretical bound curve (Figures 2–3).
type BoundPoint = core.BoundPoint

// Family selects one of the paper's model families (Tables 1–2).
type Family = core.Family

const (
	// ItemAll uses all single features.
	ItemAll = core.ItemAll
	// ItemFS uses MMRFS-selected single features.
	ItemFS = core.ItemFS
	// ItemRBF uses all single features under an RBF-kernel SVM.
	ItemRBF = core.ItemRBF
	// PatAll uses all single features plus every closed frequent
	// pattern (no selection).
	PatAll = core.PatAll
	// PatFS uses all single features plus MMRFS-selected closed
	// frequent patterns — the paper's proposed configuration.
	PatFS = core.PatFS
)

// Learner selects the model-learning algorithm.
type Learner int

const (
	// SVM is a linear-kernel support vector machine (the paper's
	// primary learner).
	SVM Learner = iota
	// C45 is a C4.5 decision tree.
	C45
)

func (l Learner) String() string {
	switch l {
	case SVM:
		return "SVM"
	case C45:
		return "C4.5"
	default:
		return fmt.Sprintf("Learner(%d)", int(l))
	}
}

// Option customizes a Classifier.
type Option func(*core.Config)

// WithMinSupport fixes the relative min_sup θ0 for pattern mining. When
// not set, min_sup is derived by the paper's Section 3.2 strategy from
// the information-gain threshold (WithIGThreshold).
func WithMinSupport(rel float64) Option {
	return func(c *core.Config) { c.MinSupport = rel }
}

// WithIGThreshold sets the information-gain filter level IG0 that the
// automatic min_sup strategy maps to a support threshold.
func WithIGThreshold(ig0 float64) Option {
	return func(c *core.Config) { c.IG0 = ig0 }
}

// WithCoverage sets MMRFS's database coverage parameter δ.
func WithCoverage(delta int) Option {
	return func(c *core.Config) { c.Coverage = delta }
}

// WithFisherRelevance switches MMRFS's relevance measure from
// information gain to Fisher score.
func WithFisherRelevance() Option {
	return func(c *core.Config) { c.Relevance = featsel.Fisher }
}

// WithSVMC sets the SVM soft-margin penalty C.
func WithSVMC(cval float64) Option {
	return func(c *core.Config) { c.SVMC = cval }
}

// WithRBFGamma sets γ for the RBF kernel (ItemRBF family).
func WithRBFGamma(gamma float64) Option {
	return func(c *core.Config) { c.RBFGamma = gamma }
}

// WithMaxPatternLen caps the length of mined patterns.
func WithMaxPatternLen(n int) Option {
	return func(c *core.Config) { c.MaxPatternLen = n }
}

// WithMaxPatterns caps the total mined pattern count; exceeding it
// fails the fit with a pattern-budget error.
func WithMaxPatterns(n int) Option {
	return func(c *core.Config) { c.MaxPatterns = n }
}

// WithStageTimeout bounds each pipeline stage (mining, selection,
// learning) individually; a stage running past it aborts the fit with
// an error satisfying errors.Is(err, ErrDeadline). Whole-run bounds
// come from the context passed to Classifier.FitContext.
func WithStageTimeout(d time.Duration) Option {
	return func(c *core.Config) { c.StageTimeout = d }
}

// WithWorkers bounds the classifier's internal parallelism: per-class
// mining, MMRFS relevance scoring, and the one-vs-one SVM subproblems
// fan out across up to n goroutines (0 = GOMAXPROCS, 1 = sequential, the
// default). Every parallel region merges deterministically, so the
// fitted model, the selected patterns, and all predictions are
// identical at any worker count. The setting is never serialized with
// saved models.
func WithWorkers(n int) Option {
	return func(c *core.Config) { c.Workers = parallel.Workers(n) }
}

// Classifier is a configured classification pipeline. It implements
// the eval.Pipeline contract used by CrossValidate: FitContext on
// dataset rows, then PredictBatch other rows.
type Classifier = core.Pipeline

// Observer records a pipeline run: nestable stage spans (wall time,
// allocation deltas, attributes) plus pipeline counters and gauges —
// items mapped, miner support tests, patterns mined and pruned, MMRFS
// iterations and coverage residual, SMO iterations, tree size, per-fold
// timings. A nil *Observer is valid everywhere and disables recording
// at zero cost.
type Observer = obs.Observer

// RunReport is the machine-readable summary of an observed run; it
// JSON round-trips losslessly and renders as a human-readable tree
// or a Chrome trace_event timeline loadable in Perfetto
// (WriteTree/WriteJSON/WriteTrace).
type RunReport = obs.RunReport

// PredictionExplanation is the per-row evidence returned by
// Classifier.PredictExplain: the fired pattern features with their
// training-set measures and (for linear SVMs) signed weight
// contributions, plus the learner's own decision breakdown.
type PredictionExplanation = core.PredictionExplanation

// FiredPattern is one pattern feature that matched an explained row.
type FiredPattern = core.FiredPattern

// ProgressFunc is notified after each completed cross-validation fold.
type ProgressFunc = eval.ProgressFunc

// NewObserver returns an enabled observer. Install it on a classifier
// with WithObserver (or Classifier.SetObserver) and snapshot results
// with Observer.Report.
func NewObserver() *Observer { return obs.New() }

// WithObserver installs an observer that records the pipeline's stage
// spans and counters during Fit and Predict.
func WithObserver(o *Observer) Option {
	return func(c *core.Config) { c.Obs = o }
}

// WithLogger installs a structured logger (log/slog) that receives
// stage-scoped DEBUG records and degradation WARN records during Fit —
// mining per class partition, MMRFS selection, SMO/C4.5 learning,
// non-converged solves. A nil logger disables logging at zero cost.
func WithLogger(l *slog.Logger) Option {
	return func(c *core.Config) { c.Log = obs.Log(l) }
}

// NewClassifier builds a classifier of the given family and learner.
func NewClassifier(f Family, l Learner, opts ...Option) *Classifier {
	// An unknown learner maps to a core value that Fit rejects.
	cfg := core.Config{Learner: -1}
	switch l {
	case SVM:
		cfg.Learner = core.SVMLinear
	case C45:
		cfg.Learner = core.C45Tree
	}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewFamily(f, cfg)
}

// LoadCSV reads a dataset from CSV: header row, class label in the last
// column, "?" for missing cells. Numeric columns are detected
// automatically.
func LoadCSV(r io.Reader, name string) (*Dataset, error) {
	return dataset.ReadCSV(r, name)
}

// SaveCSV writes a dataset in the format LoadCSV reads.
func SaveCSV(w io.Writer, d *Dataset) error {
	return dataset.WriteCSV(w, d)
}

// Generate builds one of the bundled synthetic benchmark datasets
// (stand-ins for the paper's UCI datasets; see DESIGN.md). The seed
// fixes the random draw.
func Generate(name string, seed int64) (*Dataset, error) {
	return datagen.ByName(name, seed)
}

// DatasetNames lists the bundled benchmark dataset names.
func DatasetNames() []string { return datagen.Names() }

// CrossValidate runs stratified k-fold cross validation (the paper's
// protocol uses k = 10).
func CrossValidate(c *Classifier, d *Dataset, k int, seed int64) (*CVResult, error) {
	return CrossValidateContext(context.Background(), c, d, k, seed, CVOptions{})
}

// CrossValidateContext is CrossValidate under a context with full
// CVOptions: cancellation or a context deadline aborts the run
// cooperatively (errors.Is(err, ErrCanceled) / ErrDeadline), and
// opt.ContinueOnError isolates fold failures into CVResult.Failures
// instead of aborting — Mean/Std then cover the completed folds only,
// and a run with no completed fold returns an error satisfying
// errors.Is(err, ErrPartialResult). A non-nil opt.Obs is installed on
// the classifier, so every fold's stage spans nest under its cv-fold
// span; opt.Progress reports "fold 3/10 done in 1.2s" as folds finish.
func CrossValidateContext(ctx context.Context, c *Classifier, d *Dataset, k int, seed int64, opt CVOptions) (*CVResult, error) {
	if opt.Obs != nil {
		c.SetObserver(opt.Obs)
	}
	return eval.CrossValidateContext(ctx, c, d, k, seed, opt)
}

// TrainTestSplit returns stratified train/test row indices.
func TrainTestSplit(d *Dataset, testFrac float64, seed int64) (train, test []int, err error) {
	return dataset.StratifiedSplit(d.Labels, d.NumClasses(), testFrac, seed)
}

// Evaluate fits the classifier on train rows and returns its accuracy
// on test rows.
func Evaluate(c *Classifier, d *Dataset, train, test []int) (float64, error) {
	return eval.HoldOut(context.Background(), c, d, train, test)
}

// AnalyzePatterns mines a dataset's closed patterns and reports each
// feature's length, support, information gain, and Fisher score — the
// raw material of the paper's Figures 1–3. With includeSingles, single
// features are included as length-1 entries. It also returns the
// per-class instance counts needed for the bound overlays.
func AnalyzePatterns(d *Dataset, minSupport float64, includeSingles bool) ([]PatternStat, []int, error) {
	stats, b, err := core.AnalyzePatterns(d, core.AnalyzeOptions{
		MinSupport:     minSupport,
		IncludeSingles: includeSingles,
	})
	if err != nil {
		return nil, nil, err
	}
	return stats, b.ClassCounts(), nil
}

// IGUpperBound returns the paper's information-gain upper bound
// IGub(θ) for a two-class problem with minority prior p — the Figure 2
// envelope.
func IGUpperBound(theta, p float64) float64 {
	return measures.IGUpperBound(theta, p)
}

// FisherUpperBound returns the Fisher-score upper bound Frub(θ) — the
// Figure 3 envelope.
func FisherUpperBound(theta, p float64) float64 {
	return measures.FisherUpperBound(theta, p)
}

// IGBoundCurve returns IGub at every absolute support for the given
// class counts.
func IGBoundCurve(classCounts []int) []BoundPoint {
	return core.IGBoundCurve(classCounts)
}

// FisherBoundCurve returns Frub at every absolute support.
func FisherBoundCurve(classCounts []int) []BoundPoint {
	return core.FisherBoundCurve(classCounts)
}

// MinSupportForIG implements the min_sup-setting strategy (Eq. 8):
// given an information-gain threshold IG0, a two-class minority prior
// p, and n training instances, it returns the largest absolute support
// whose IG upper bound stays at or below IG0. Mining with min_sup one
// above it loses no feature an IG0 filter would keep.
func MinSupportForIG(ig0, p float64, n int) (int, error) {
	return measures.MinSupportForIG(ig0, p, n)
}

// MinSupportForFisher is the Fisher-score variant of the strategy.
func MinSupportForFisher(fr0, p float64, n int) (int, error) {
	return measures.MinSupportForFisher(fr0, p, n)
}

// SaveModel serializes a fitted classifier so it can be reloaded with
// LoadModel and used for prediction without retraining.
func SaveModel(w io.Writer, c *Classifier) error {
	return c.Save(w)
}

// LoadModel restores a classifier saved with SaveModel.
func LoadModel(r io.Reader) (*Classifier, error) {
	return core.Load(r)
}

// Package core implements the paper's frequent pattern-based
// classification framework (Section 3): (1) feature generation — closed
// frequent patterns mined per class partition at min_sup, (2) feature
// selection — MMRFS, and (3) model learning — SVM or C4.5 on the
// extended feature space I ∪ Fs. It also provides the baseline model
// families of Tables 1–2 (Item_All, Item_FS, Item_RBF, Pat_All,
// Pat_FS) behind one Pipeline type that plugs into eval.CrossValidateContext.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"dfpc/internal/c45"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/faults"
	"dfpc/internal/featsel"
	"dfpc/internal/guard"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// Learner selects the model-learning algorithm of step (3).
type Learner int

const (
	// SVMLinear is LIBSVM-style C-SVC with a linear kernel (the main
	// learner of Table 1).
	SVMLinear Learner = iota
	// SVMRBF is C-SVC with an RBF kernel (the Item_RBF baseline).
	SVMRBF
	// C45Tree is the C4.5 decision tree (Table 2).
	C45Tree
)

func (l Learner) String() string {
	switch l {
	case SVMLinear:
		return "svm-linear"
	case SVMRBF:
		return "svm-rbf"
	case C45Tree:
		return "c4.5"
	default:
		return fmt.Sprintf("Learner(%d)", int(l))
	}
}

// Config configures a Pipeline.
type Config struct {
	// UsePatterns enables feature generation: closed frequent patterns
	// are mined per class and added to the feature space.
	UsePatterns bool
	// SelectPatterns applies MMRFS to the mined pattern pool; the
	// feature space becomes I ∪ Fs (Pat_FS). Without it the space is
	// I ∪ F (Pat_All).
	SelectPatterns bool
	// SelectItems applies MMRFS to the single items and restricts the
	// feature space to the selected items (Item_FS). Mutually exclusive
	// with UsePatterns.
	SelectItems bool

	// MinSupport is the relative min_sup θ0 for per-class mining. When
	// <= 0, it is derived by the paper's Section 3.2 strategy: the
	// largest θ whose information-gain upper bound stays below IG0.
	MinSupport float64
	// IG0 is the information-gain filter threshold used to derive
	// min_sup when MinSupport <= 0 (default 0.03).
	IG0 float64
	// MaxPatternLen caps mined pattern length (default 6; 0 keeps the
	// default, negative means unlimited).
	MaxPatternLen int
	// MaxPatterns aborts mining past this many patterns, surfacing
	// mining.ErrPatternBudget (default 2,000,000).
	MaxPatterns int

	// Coverage is MMRFS's δ (default 3).
	Coverage int
	// Relevance is MMRFS's S measure (default information gain).
	Relevance featsel.Relevance

	// Learner picks the classifier (default SVMLinear).
	Learner Learner
	// SVMC is the soft-margin penalty (default 1).
	SVMC float64
	// RBFGamma is γ for SVMRBF; <= 0 means 1/numFeatures.
	RBFGamma float64

	// StageTimeout bounds each pipeline stage (mining, selection,
	// learning) individually; a stage running past it aborts with an
	// error satisfying errors.Is(err, guard.ErrDeadline). 0 = unbounded.
	// Whole-run bounds come from the context passed to FitContext.
	StageTimeout time.Duration

	// Workers bounds the intra-fit parallelism: per-class mining, MMRFS
	// relevance scoring, and the one-vs-one SVM subproblems all fan out
	// under this one knob (0 = GOMAXPROCS, 1 — the zero value's
	// effective meaning — = sequential). Every parallel region merges
	// deterministically, so the fitted model is identical at any worker
	// count. Like Log, the field is gob-transparent: saved models carry
	// no worker count.
	Workers parallel.Workers

	// Obs, when non-nil, receives stage spans and pipeline counters for
	// every Fit/Predict call (see internal/obs). Nil — the default —
	// disables instrumentation at zero cost. Observers are never
	// serialized with saved models.
	Obs *obs.Observer
	// Log, when it wraps a non-nil logger, receives structured records
	// for every Fit call: stage-scoped DEBUG detail from mining,
	// selection, and learning, and a WARN per degradation (a
	// non-converged SMO solve). The zero handle — the default —
	// disables logging at zero cost. Loggers are never serialized with
	// saved models (the handle gob-encodes as nothing).
	Log obs.LogHandle
	// Faults, when non-nil, enables deterministic fault injection at
	// the pipeline's stage boundaries and inside mining, selection, and
	// learning (see internal/faults). Nil — the default — is free, and
	// registries are never serialized with saved models (the type
	// gob-encodes as nothing).
	Faults *faults.Registry
	// Drift, when non-nil, streams every Predict call's per-row
	// outcome (class, confidence, fired patterns) into the
	// model-quality drift tracker, scored against the baseline the
	// pipeline computed at Fit time (see internal/modelobs). Nil —
	// the default — keeps the Predict hot path on its allocation
	// baseline. CV clones share the pointer, so a cross-validated run
	// reports one drift stream; trackers are never serialized with
	// saved models (the type gob-encodes as nothing).
	Drift *modelobs.Tracker
}

// Warning records a non-fatal degradation that happened during Fit —
// a non-converged SMO solve — so callers can distinguish clean results
// from degraded ones without failing the run.
type Warning struct {
	// Stage names the pipeline stage that degraded ("learn").
	Stage string
	// Message is a human-readable description of the degradation.
	Message string
}

func (w Warning) String() string { return w.Stage + ": " + w.Message }

func (c Config) withDefaults() Config {
	if c.IG0 <= 0 {
		c.IG0 = 0.03
	}
	if c.MaxPatternLen == 0 {
		c.MaxPatternLen = 6
	} else if c.MaxPatternLen < 0 {
		c.MaxPatternLen = 0
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 2_000_000
	}
	if c.Coverage <= 0 {
		c.Coverage = 3
	}
	if c.SVMC <= 0 {
		c.SVMC = 1
	}
	return c
}

// predictor is the common contract every learner's trained model
// satisfies.
type predictor interface {
	Predict(x []int32) int
}

// Pipeline is one configured train/predict pipeline. It implements
// eval.Pipeline (FitContext, PredictBatch). The zero value is
// unusable; construct with New or one of the model-family helpers.
type Pipeline struct {
	cfg Config

	// fitted state
	disc     *discretize.Discretizer
	space    *dataset.Space
	numItems int
	patterns []mining.Pattern  // selected pattern features, id = numItems + index
	matcher  *patmatch.Matcher // compiled trie over p.patterns; nil iff no patterns
	model    predictor
	itemKept []bool // non-nil for Item_FS: which items stay in the space
	report   []FeatureReport
	baseline *modelobs.Baseline // training reference for drift scoring

	// Stats from the last Fit, for reports and the scalability tables.
	Stats FitStats
}

// FitStats reports feature-generation/selection outcomes of a Fit call.
type FitStats struct {
	MinSupport   float64 // the relative min_sup actually used
	MinedCount   int     // |F| before selection
	FeatureCount int     // patterns (or items for Item_FS) after selection
	// Warnings lists the degradations of this fit (empty for a clean
	// run): non-converged SMO solves. A model with warnings is usable
	// but not pristine.
	Warnings []Warning
	// SelectionAudit is MMRFS's per-iteration decision trail — which
	// candidate each iteration selected or dropped, and its
	// relevance/redundancy/gain. A drop entry is recorded when the
	// candidate is retired: its redundancy is the max over the
	// selections it had seen by then, a lower bound, so its gain is an
	// upper bound. Recorded only when an observer was installed during
	// Fit and a selection stage ran; the greedy loop is sequential, so
	// the trail is identical at any worker count.
	SelectionAudit []featsel.AuditEntry
}

// warn appends a degradation record to the current fit's stats and
// mirrors it onto the observer and the structured log.
func (p *Pipeline) warn(stage, msg string) {
	p.Stats.Warnings = append(p.Stats.Warnings, Warning{Stage: stage, Message: msg})
	p.cfg.Obs.Counter("core.warnings").Inc()
	if p.cfg.Log.Logger != nil {
		p.cfg.Log.Warn("pipeline degradation",
			slog.String("stage", stage), slog.String("detail", msg))
	}
}

// stageGuard builds one stage's guard: ctx plus Config.StageTimeout.
// It is nil, and free, for a background context with no stage timeout.
func (p *Pipeline) stageGuard(ctx context.Context) *guard.Guard {
	return guard.New(ctx, guard.Limits{Timeout: p.cfg.StageTimeout})
}

// FeatureReport describes one selected pattern feature for
// interpretability: the human-readable conjunction, its coverage and
// discriminative measures, and the class it votes for.
type FeatureReport struct {
	Name          string // e.g. "color=red ∧ size=(2.5-5]"
	Items         []int32
	Length        int
	Support       int
	RelSupport    float64
	InfoGain      float64
	Fisher        float64
	MajorityClass string
	Confidence    float64 // P(majority class | pattern present)
}

// New builds a pipeline from a config.
func New(cfg Config) (*Pipeline, error) {
	if cfg.UsePatterns && cfg.SelectItems {
		return nil, errors.New("core: SelectItems and UsePatterns are mutually exclusive")
	}
	return &Pipeline{cfg: cfg.withDefaults()}, nil
}

// The model families of Tables 1–2.

// NewItemAll classifies on all single features.
func NewItemAll(l Learner) *Pipeline {
	p, _ := New(Config{Learner: l})
	return p
}

// NewItemFS classifies on MMRFS-selected single features.
func NewItemFS(l Learner) *Pipeline {
	p, _ := New(Config{Learner: l, SelectItems: true})
	return p
}

// NewItemRBF classifies on all single features with an RBF-kernel SVM.
func NewItemRBF(gamma float64) *Pipeline {
	p, _ := New(Config{Learner: SVMRBF, RBFGamma: gamma})
	return p
}

// NewPatAll classifies on I ∪ F: all single features plus all closed
// frequent patterns at the given relative min_sup (<= 0 derives it from
// the IG-threshold strategy).
func NewPatAll(l Learner, minSup float64) *Pipeline {
	p, _ := New(Config{Learner: l, UsePatterns: true, MinSupport: minSup})
	return p
}

// NewPatFS classifies on I ∪ Fs: all single features plus the
// MMRFS-selected closed frequent patterns.
func NewPatFS(l Learner, minSup float64) *Pipeline {
	p, _ := New(Config{Learner: l, UsePatterns: true, SelectPatterns: true, MinSupport: minSup})
	return p
}

// resolveMinSupport applies the Section 3.2 strategy when no explicit
// min_sup is configured: compute θ* = argmax_θ (IGub(θ) ≤ IG0) from
// the training class distribution.
func (p *Pipeline) resolveMinSupport(b *dataset.Binary) (float64, error) {
	if p.cfg.MinSupport > 0 {
		return p.cfg.MinSupport, nil
	}
	n := b.NumRows()
	counts := b.ClassCounts()
	var sAbs int
	var err error
	if b.NumClasses() == 2 {
		pos := float64(counts[1]) / float64(n)
		// The bound is symmetric in p ↔ 1−p; use the minority prior.
		if pos > 0.5 {
			pos = 1 - pos
		}
		sAbs, err = measures.MinSupportForIG(p.cfg.IG0, pos, n)
	} else {
		priors := make([]float64, len(counts))
		for c, cnt := range counts {
			priors[c] = float64(cnt) / float64(n)
		}
		sAbs, err = measures.MinSupportForIGMulti(p.cfg.IG0, priors, n)
	}
	if err != nil {
		return 0, err
	}
	// Mining keeps supports strictly above the skippable region.
	rel := float64(sAbs+1) / float64(n)
	if rel > 0.5 {
		rel = 0.5 // never demand majority support; keep the pool usable
	}
	if rel <= 0 {
		rel = 1 / float64(n)
	}
	return rel, nil
}

// Fit trains the pipeline on the given rows of d. It is equivalent to
// FitContext with context.Background() and costs nothing extra.
func (p *Pipeline) Fit(d *dataset.Dataset, rows []int) error {
	return p.FitContext(context.Background(), d, rows)
}

// FitContext trains the pipeline on the given rows of d under ctx:
// cancellation or a context deadline aborts mining, selection, and
// learning cooperatively with an error satisfying
// errors.Is(err, guard.ErrCanceled) or guard.ErrDeadline. Per-stage
// bounds come from Config.StageTimeout, and Config.MaxPatterns bounds
// the mined pool. A background context with no configured limits takes
// the same zero-cost path as Fit.
func (p *Pipeline) FitContext(ctx context.Context, d *dataset.Dataset, rows []int) error {
	if len(rows) == 0 {
		return errors.New("core: empty training set")
	}
	if err := guard.New(ctx, guard.Limits{}).CheckNow(); err != nil {
		return err
	}
	if err := p.cfg.Faults.Hit(faults.CoreFitStart); err != nil {
		return fmt.Errorf("core: fit: %w", err)
	}
	o := p.cfg.Obs
	o.Gauge("parallel.workers").Set(float64(p.cfg.Workers.Resolve()))
	fit := o.Start("fit").Attr("rows", len(rows)).Attr("learner", p.cfg.Learner)
	defer fit.End()
	// The mined coverage bitmaps serve selection, the report, and the
	// baseline; they are training-row state, not model state.
	defer func() { mining.ReleaseCovers(p.patterns) }()
	train := d.Subset(rows)

	sp := o.Start("discretize")
	var err error
	p.disc, err = discretize.Fit(train, discretize.Options{})
	if err != nil {
		sp.End()
		return fmt.Errorf("core: discretize: %w", err)
	}
	cat, err := p.disc.Apply(train)
	sp.End()
	if err != nil {
		return fmt.Errorf("core: discretize apply: %w", err)
	}
	sp = o.Start("encode")
	b, err := dataset.Encode(cat)
	if err != nil {
		sp.End()
		return fmt.Errorf("core: encode: %w", err)
	}
	if o.Enabled() {
		mapped := 0
		for _, r := range b.Rows {
			mapped += len(r)
		}
		o.Counter("encode.items_mapped").Add(int64(mapped))
		sp.Attr("items", b.NumItems()).Attr("rows", b.NumRows())
	}
	sp.End()
	p.space = b.Space
	p.numItems = b.NumItems()
	p.patterns = nil
	p.matcher = nil
	p.itemKept = nil
	p.report = nil
	p.baseline = nil
	p.Stats = FitStats{}

	switch {
	case p.cfg.SelectItems:
		if err := p.selectItems(ctx, b); err != nil {
			return err
		}
	case p.cfg.UsePatterns:
		if err := p.generatePatterns(ctx, b); err != nil {
			return err
		}
	}
	if err := p.compileMatcher(); err != nil {
		return err
	}
	p.buildReport(b)

	sp = o.Start("featurize").Attr("rows", b.NumRows())
	x := make([][]int32, b.NumRows())
	var ms patmatch.Scratch
	ms.Grow(p.matcher)
	for i := range x {
		row := b.Rows[i]
		x[i] = p.featureVectorInto(make([]int32, 0, len(row)+len(p.patterns)), row, &ms)
	}
	if o.Enabled() {
		// Pattern-feature IDs sit above the item space, sorted to the
		// tail of each row; count how many pattern features matched.
		hits := 0
		lim := int32(p.numItems)
		for _, row := range x {
			for j := len(row) - 1; j >= 0 && row[j] >= lim; j-- {
				hits++
			}
		}
		o.Counter("featurize.pattern_hits").Add(int64(hits))
	}
	sp.End()

	ls := o.Start("learn").Attr("learner", p.cfg.Learner).
		Attr("features", p.numItems+len(p.patterns))
	err = p.learn(ctx, x, b.Labels, b.NumClasses())
	ls.End()
	if err == nil {
		p.computeBaseline(b, x)
	}
	if err == nil && p.cfg.Log.Logger != nil {
		p.cfg.Log.Debug("fit done",
			slog.String("learner", p.cfg.Learner.String()),
			slog.Int("rows", len(rows)),
			slog.Int("items", p.numItems),
			slog.Int("pattern_features", len(p.patterns)),
			slog.Int("warnings", len(p.Stats.Warnings)))
	}
	return err
}

// buildReport records the interpretability report for the selected
// pattern features.
func (p *Pipeline) buildReport(b *dataset.Binary) {
	if len(p.patterns) == 0 {
		return
	}
	n := float64(b.NumRows())
	p.report = make([]FeatureReport, 0, len(p.patterns))
	for _, pt := range p.patterns {
		cover, sup := pt.Cover(), pt.Support
		best, bestCount := 0, 0
		for c, mask := range b.ClassMasks {
			if hits := cover.AndCount(mask); hits > bestCount {
				best, bestCount = c, hits
			}
		}
		conf := 0.0
		if sup > 0 {
			conf = float64(bestCount) / float64(sup)
		}
		name := ""
		for j, it := range pt.Items {
			if j > 0 {
				name += " ∧ "
			}
			name += b.Space.ItemName(int(it))
		}
		p.report = append(p.report, FeatureReport{
			Name:          name,
			Items:         pt.Items,
			Length:        pt.Len(),
			Support:       sup,
			RelSupport:    float64(sup) / n,
			InfoGain:      measures.InfoGain(cover, b.ClassMasks),
			Fisher:        measures.FisherScore(cover, b.ClassMasks),
			MajorityClass: b.Classes[best],
			Confidence:    conf,
		})
	}
}

// Explain returns the interpretability report for the pattern features
// selected by the last Fit (nil when the pipeline uses no patterns).
func (p *Pipeline) Explain() []FeatureReport {
	return p.report
}

// CloneForCV returns an independent unfitted pipeline with this one's
// configuration, implementing eval.CVCloner so the CV harness can fit
// concurrent folds on separate instances. The clone shares the config's
// pointer fields (observer, logger, context) until the harness installs
// per-fold replacements via SetObserver; fitted state is not copied.
func (p *Pipeline) CloneForCV() any { return &Pipeline{cfg: p.cfg} }

// SetObserver installs (or, with nil, removes) the observer that
// receives this pipeline's stage spans and counters. Equivalent to
// configuring Config.Obs at construction time.
func (p *Pipeline) SetObserver(o *obs.Observer) { p.cfg.Obs = o }

// Observer returns the currently installed observer (nil when
// instrumentation is off).
func (p *Pipeline) Observer() *obs.Observer { return p.cfg.Obs }

// SetFaults installs (or, with nil, removes) the fault-injection
// registry consulted at this pipeline's stage boundaries. Equivalent
// to configuring Config.Faults at construction time.
func (p *Pipeline) SetFaults(r *faults.Registry) { p.cfg.Faults = r }

// SetDriftTracker installs (or, with nil, removes) the model-quality
// drift tracker every subsequent Predict call streams into. The
// tracker binds to the pipeline's fit-time baseline on the first
// tracked Predict.
func (p *Pipeline) SetDriftTracker(t *modelobs.Tracker) { p.cfg.Drift = t }

// DriftTracker returns the installed drift tracker (nil = disabled).
func (p *Pipeline) DriftTracker() *modelobs.Tracker { return p.cfg.Drift }

// Baseline returns the training reference distribution computed by
// the last Fit, or nil before Fit and for models loaded from
// pre-baseline (v1) artifacts.
func (p *Pipeline) Baseline() *modelobs.Baseline { return p.baseline }

// SetLogger installs (or, with nil, removes) the structured logger that
// receives this pipeline's stage records and degradation warnings.
// Equivalent to configuring Config.Log at construction time.
func (p *Pipeline) SetLogger(l *slog.Logger) { p.cfg.Log = obs.Log(l) }

// Logger returns the currently installed structured logger (nil when
// logging is off).
func (p *Pipeline) Logger() *slog.Logger { return p.cfg.Log.Logger }

// selectItems runs MMRFS over the single items (Item_FS).
func (p *Pipeline) selectItems(ctx context.Context, b *dataset.Binary) error {
	if err := p.cfg.Faults.Hit(faults.CoreSelect); err != nil {
		return fmt.Errorf("core: select: %w", err)
	}
	o := p.cfg.Obs
	sp := o.Start("select-items").Attr("items", b.NumItems())
	defer sp.End()
	cands := make([]featsel.Candidate, b.NumItems())
	for i := range cands {
		cands[i] = featsel.Candidate{Items: []int32{int32(i)}, Cover: b.Columns[i]}
	}
	res, err := featsel.MMRFS(cands, b.ClassMasks, b.Labels, featsel.Options{
		Relevance: p.cfg.Relevance,
		Coverage:  p.cfg.Coverage,
		Guard:     p.stageGuard(ctx),
		Obs:       o,
		Log:       obs.StageLogger(p.cfg.Log.Logger, "select-items"),
		Workers:   p.cfg.Workers,
		Faults:    p.cfg.Faults,
	})
	if err != nil {
		return fmt.Errorf("core: item MMRFS: %w", err)
	}
	p.itemKept = make([]bool, b.NumItems())
	for _, idx := range res.Selected {
		p.itemKept[idx] = true
	}
	p.Stats.MinedCount = b.NumItems()
	p.Stats.FeatureCount = len(res.Selected)
	p.Stats.SelectionAudit = res.Audit
	o.Counter("core.features_selected").Add(int64(len(res.Selected)))
	return nil
}

// generatePatterns mines closed patterns per class and, for Pat_FS,
// applies MMRFS. A pattern-budget trip fails the fit with
// mining.ErrPatternBudget at the resolved min_sup.
func (p *Pipeline) generatePatterns(ctx context.Context, b *dataset.Binary) error {
	if err := p.cfg.Faults.Hit(faults.CoreMine); err != nil {
		return fmt.Errorf("core: mine: %w", err)
	}
	o := p.cfg.Obs
	sp := o.Start("mine")
	rs := o.Start("resolve-minsup")
	minSup, err := p.resolveMinSupport(b)
	rs.End()
	if err != nil {
		sp.End()
		return err
	}
	p.Stats.MinSupport = minSup
	o.Gauge("core.min_sup").Set(minSup)
	sp.Attr("min_sup", minSup)
	mopt := mining.PerClassOptions{
		MinSupport:  minSup,
		Closed:      true,
		MaxPatterns: p.cfg.MaxPatterns,
		MaxLen:      p.cfg.MaxPatternLen,
		MinLen:      2, // single items are already in the space
		Guard:       p.stageGuard(ctx),
		Obs:         o,
		Log:         obs.StageLogger(p.cfg.Log.Logger, "mine"),
		Workers:     p.cfg.Workers,
		Faults:      p.cfg.Faults,
	}
	mined, err := mining.MinePerClass(b, mopt)
	sp.Attr("patterns", len(mined)).End()
	if err != nil {
		return fmt.Errorf("core: mining at min_sup=%v: %w", minSup, err)
	}
	p.Stats.MinedCount = len(mined)
	o.Counter("core.patterns_mined").Add(int64(len(mined)))

	if o.Enabled() && len(mined) > 0 {
		// Search-space quality pass (introspection only): realized IG of
		// every mined pattern feeds the by-support/by-length histograms
		// and the IGub bound-tightness stats, reproducing the paper's
		// Figures 1–3 characterization from this run's own pool.
		qs := o.Start("score-space").Attr("patterns", len(mined))
		rec := measures.NewQualityRecorder(o, b.ClassMasks)
		for _, pt := range mined {
			rec.Observe(measures.InfoGain(pt.Cover(), b.ClassMasks), pt.Support, pt.Len())
		}
		qs.End()
	}

	if !p.cfg.SelectPatterns {
		p.patterns = mined
		p.Stats.FeatureCount = len(mined)
		o.Counter("core.features_selected").Add(int64(len(mined)))
		return nil
	}
	if err := p.cfg.Faults.Hit(faults.CoreSelect); err != nil {
		return fmt.Errorf("core: select: %w", err)
	}
	sp = o.Start("select").Attr("candidates", len(mined))
	cands := make([]featsel.Candidate, len(mined))
	for i, pt := range mined {
		cands[i] = featsel.Candidate{Items: pt.Items, Cover: pt.Cover()}
	}
	res, err := featsel.MMRFS(cands, b.ClassMasks, b.Labels, featsel.Options{
		Relevance: p.cfg.Relevance,
		Coverage:  p.cfg.Coverage,
		Guard:     p.stageGuard(ctx),
		Obs:       o,
		Log:       obs.StageLogger(p.cfg.Log.Logger, "select"),
		Workers:   p.cfg.Workers,
		Faults:    p.cfg.Faults,
	})
	if err != nil {
		sp.End()
		return fmt.Errorf("core: pattern MMRFS: %w", err)
	}
	p.Stats.SelectionAudit = res.Audit
	p.patterns = make([]mining.Pattern, len(res.Selected))
	for i, idx := range res.Selected {
		p.patterns[i] = mined[idx]
	}
	// Keep pattern feature IDs deterministic w.r.t. the mined order
	// rather than selection order.
	mining.SortPatterns(p.patterns)
	p.Stats.FeatureCount = len(p.patterns)
	o.Counter("core.features_selected").Add(int64(len(p.patterns)))
	sp.Attr("selected", len(p.patterns)).End()
	return nil
}

// compileMatcher folds the selected patterns into the shared matching
// trie the predict path walks (see internal/patmatch). Runs at the
// tail of feature generation in every Fit; pattern-free pipelines keep
// a nil matcher. Compilation is deterministic, so the matcher's bytes
// are part of the model's worker-count-invariant surface.
func (p *Pipeline) compileMatcher() error {
	if len(p.patterns) == 0 {
		return nil
	}
	if err := p.cfg.Faults.Hit(faults.PatmatchCompile); err != nil {
		return fmt.Errorf("core: compile matcher: %w", err)
	}
	o := p.cfg.Obs
	sp := o.Start("compile-matcher").Attr("patterns", len(p.patterns))
	items := make([][]int32, len(p.patterns))
	for i := range p.patterns {
		items[i] = p.patterns[i].Items
	}
	p.matcher = patmatch.Compile(items)
	if o.Enabled() {
		o.Counter("patmatch.nodes").Add(int64(p.matcher.NumNodes()))
		o.Counter("patmatch.patterns").Add(int64(p.matcher.NumPatterns()))
		o.Gauge("patmatch.max_depth").Set(float64(p.matcher.MaxDepth()))
		sp.Attr("nodes", p.matcher.NumNodes()).Attr("depth", p.matcher.MaxDepth())
	}
	sp.End()
	return nil
}

// Matcher returns the compiled pattern matcher of the last Fit (nil
// for pattern-free pipelines). Exposed for the determinism suite and
// serving diagnostics; callers must treat it as read-only.
func (p *Pipeline) Matcher() *patmatch.Matcher { return p.matcher }

// featureVectorInto maps a transaction (sorted item IDs) into the
// fitted feature space, appending to dst: kept items followed by
// matched pattern features with IDs numItems+j, ascending. All
// per-call state lives in dst and the caller's matcher scratch, so a
// presized caller pays zero allocations per row.
func (p *Pipeline) featureVectorInto(dst []int32, tx []int32, ms *patmatch.Scratch) []int32 {
	if p.itemKept != nil {
		for _, it := range tx {
			if p.itemKept[it] {
				dst = append(dst, it)
			}
		}
	} else {
		dst = append(dst, tx...)
	}
	if p.matcher != nil {
		dst = p.matcher.MatchAppend(dst, tx, int32(p.numItems), ms)
	}
	return dst
}

// learn trains the configured learner on the transformed rows.
func (p *Pipeline) learn(ctx context.Context, x [][]int32, y []int, numClasses int) error {
	if err := p.cfg.Faults.Hit(faults.CoreLearn); err != nil {
		return fmt.Errorf("core: learn: %w", err)
	}
	numFeatures := p.numItems + len(p.patterns)
	g := p.stageGuard(ctx)
	var (
		m   predictor
		err error
	)
	switch p.cfg.Learner {
	case C45Tree:
		m, err = c45.Train(x, y, numClasses, c45.Config{
			Obs:    p.cfg.Obs,
			Log:    obs.Log(obs.StageLogger(p.cfg.Log.Logger, "learn")),
			Guard:  g,
			Faults: p.cfg.Faults,
		})
	case SVMRBF:
		m, err = svm.Train(x, y, numClasses, svm.Config{
			C:           p.cfg.SVMC,
			Kernel:      svm.Kernel{Type: svm.RBF, Gamma: p.cfg.RBFGamma},
			NumFeatures: numFeatures,
			Guard:       g,
			Obs:         p.cfg.Obs,
			Log:         obs.StageLogger(p.cfg.Log.Logger, "learn"),
			Workers:     p.cfg.Workers,
			Faults:      p.cfg.Faults,
		})
	case SVMLinear:
		m, err = svm.Train(x, y, numClasses, svm.Config{
			C:           p.cfg.SVMC,
			NumFeatures: numFeatures,
			Guard:       g,
			Obs:         p.cfg.Obs,
			Log:         obs.StageLogger(p.cfg.Log.Logger, "learn"),
			Workers:     p.cfg.Workers,
			Faults:      p.cfg.Faults,
		})
	default:
		return fmt.Errorf("core: learn: unknown learner %v", p.cfg.Learner)
	}
	if err != nil {
		return fmt.Errorf("core: %v: %w", p.cfg.Learner, err)
	}
	if sm, ok := m.(*svm.Model); ok {
		if n := sm.NonConverged(); n > 0 {
			p.warn("learn", fmt.Sprintf(
				"%d of %d SMO subproblem(s) hit MaxIter before converging; model is usable but may be short of optimal",
				n, sm.BinaryProblems()))
		}
	}
	p.model = m
	return nil
}

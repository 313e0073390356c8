// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) on the synthetic dataset stand-ins:
// Tables 1–2 (accuracy of the five model families under SVM and C4.5),
// Tables 3–5 (scalability vs. min_sup on the dense datasets), Figures
// 1–3 (information gain / Fisher score vs. pattern length and support,
// with theoretical bounds), the Section 5 comparison against
// HARMONY/CBA, and the DESIGN.md ablations. Each experiment returns
// structured rows and can render itself to an io.Writer.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/eval"
	"dfpc/internal/featsel"
	"dfpc/internal/guard"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
	"dfpc/internal/patmatch"
	"dfpc/internal/rules"
	"dfpc/internal/svm"
)

// Seed fixes every dataset draw and fold split so runs are
// reproducible.
const Seed int64 = 20070415 // ICDE 2007

// Table1Row is one dataset's accuracies in Table 1 (SVM) — percent.
type Table1Row struct {
	Dataset string
	ItemAll float64
	ItemFS  float64
	ItemRBF float64
	PatAll  float64
	PatFS   float64
}

// Table2Row is one dataset's accuracies in Table 2 (C4.5) — percent.
type Table2Row struct {
	Dataset string
	ItemAll float64
	ItemFS  float64
	PatAll  float64
	PatFS   float64
}

// Protocol bundles the shared evaluation parameters. The paper uses
// 10-fold cross validation; smaller fold counts give a faster,
// lower-fidelity run for benchmarks.
type Protocol struct {
	Folds int
	// MinSupport <= 0 uses the automatic θ*(IG0) strategy per fold.
	MinSupport float64
	// Coverage is MMRFS's δ.
	Coverage int
	// StageTimeout bounds each pipeline stage within every fit
	// (0 = unbounded).
	StageTimeout time.Duration
	// ContinueOnError isolates failing CV folds: a table cell is then
	// the mean over the completed folds instead of aborting the sweep.
	ContinueOnError bool
	// Workers bounds the parallelism of every CV run and pipeline fit
	// in the sweep (0 = GOMAXPROCS, 1 = sequential). Results are
	// deterministic at any worker count.
	Workers parallel.Workers
	// Log, when non-nil, receives stage-scoped DEBUG records and
	// degradation WARN records from every pipeline fit and CV fold of
	// the sweep. Nil disables logging.
	Log *slog.Logger
}

func (p Protocol) withDefaults() Protocol {
	if p.Folds <= 0 {
		p.Folds = 10
	}
	if p.Coverage <= 0 {
		p.Coverage = 3
	}
	return p
}

// perDatasetMinSup holds tuned relative min_sup values, playing the
// role of the per-dataset thresholds the paper's experiments used:
// datasets with highly correlated attributes need higher thresholds to
// keep the pattern pool tractable, sparse ones can afford lower
// thresholds.
var perDatasetMinSup = map[string]float64{
	"anneal": 0.35, "austral": 0.2, "auto": 0.25, "breast": 0.3,
	"cleve": 0.2, "diabetes": 0.1, "glass": 0.1, "heart": 0.2,
	"hepatic": 0.25, "horse": 0.25, "iono": 0.1, "iris": 0.1,
	"labor": 0.25, "lymph": 0.25, "pima": 0.1, "sonar": 0.1,
	"vehicle": 0.1, "wine": 0.1, "zoo": 0.35,
	"chess": 0.7, "waveform": 0.04, "letter": 0.2,
}

// minSupFor resolves the protocol's min_sup for one dataset: an
// explicit protocol value wins; otherwise the tuned per-dataset value.
func minSupFor(name string, proto Protocol) float64 {
	if proto.MinSupport != 0 {
		return proto.MinSupport
	}
	if v, ok := perDatasetMinSup[name]; ok {
		return v
	}
	return 0.15
}

// cvProto cross-validates under ctx and the protocol's fold-isolation
// settings and returns the mean accuracy in percent.
func cvProto(ctx context.Context, p eval.Pipeline, d *dataset.Dataset, proto Protocol) (float64, error) {
	res, err := eval.CrossValidateContext(ctx, p, d, proto.Folds, Seed, eval.CVOptions{
		ContinueOnError: proto.ContinueOnError,
		Log:             proto.Log,
		Workers:         proto.Workers,
	})
	if err != nil {
		return 0, err
	}
	return 100 * res.Mean, nil
}

// mk wraps a pipeline constructor, annotating its error. Callers must
// propagate the error; a bad configuration fails the experiment row
// instead of panicking the whole sweep.
func mk(f func() (*core.Pipeline, error)) (*core.Pipeline, error) {
	p, err := f()
	if err != nil {
		return nil, fmt.Errorf("experiments: build pipeline: %w", err)
	}
	return p, nil
}

// pipelineFor builds one model-family pipeline with the protocol's
// parameters.
func pipelineFor(family string, learner core.Learner, proto Protocol) (*core.Pipeline, error) {
	cfg := core.Config{
		Learner:      learner,
		Coverage:     proto.Coverage,
		MinSupport:   proto.MinSupport,
		StageTimeout: proto.StageTimeout,
		Log:          obs.Log(proto.Log),
		Workers:      proto.Workers,
	}
	switch family {
	case "Item_FS":
		cfg.SelectItems = true
	case "Item_RBF":
		cfg.Learner = core.SVMRBF
	case "Pat_All":
		cfg.UsePatterns = true
	case "Pat_FS":
		cfg.UsePatterns = true
		cfg.SelectPatterns = true
	}
	return mk(func() (*core.Pipeline, error) { return core.New(cfg) })
}

// RunTable1 reproduces Table 1: SVM accuracy of the five model
// families on the given datasets. A canceled or expired ctx aborts the
// sweep with the rows collected so far.
func RunTable1(ctx context.Context, names []string, proto Protocol) ([]Table1Row, error) {
	proto = proto.withDefaults()
	var rows []Table1Row
	for _, name := range names {
		d, err := datagen.ByName(name, Seed)
		if err != nil {
			return rows, err
		}
		row := Table1Row{Dataset: name}
		dsProto := proto
		dsProto.MinSupport = minSupFor(name, proto)
		for _, fam := range []struct {
			name string
			dst  *float64
		}{
			{"Item_All", &row.ItemAll},
			{"Item_FS", &row.ItemFS},
			{"Item_RBF", &row.ItemRBF},
			{"Pat_All", &row.PatAll},
			{"Pat_FS", &row.PatFS},
		} {
			p, err := pipelineFor(fam.name, core.SVMLinear, dsProto)
			if err != nil {
				return rows, fmt.Errorf("table1 %s/%s: %w", name, fam.name, err)
			}
			acc, err := cvProto(ctx, p, d, dsProto)
			if err != nil {
				return rows, fmt.Errorf("table1 %s/%s: %w", name, fam.name, err)
			}
			*fam.dst = acc
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunTable2 reproduces Table 2: C4.5 accuracy of four model families.
// A canceled or expired ctx aborts the sweep with the rows collected
// so far.
func RunTable2(ctx context.Context, names []string, proto Protocol) ([]Table2Row, error) {
	proto = proto.withDefaults()
	var rows []Table2Row
	for _, name := range names {
		d, err := datagen.ByName(name, Seed)
		if err != nil {
			return rows, err
		}
		row := Table2Row{Dataset: name}
		dsProto := proto
		dsProto.MinSupport = minSupFor(name, proto)
		for _, fam := range []struct {
			name string
			dst  *float64
		}{
			{"Item_All", &row.ItemAll},
			{"Item_FS", &row.ItemFS},
			{"Pat_All", &row.PatAll},
			{"Pat_FS", &row.PatFS},
		} {
			p, err := pipelineFor(fam.name, core.C45Tree, dsProto)
			if err != nil {
				return rows, fmt.Errorf("table2 %s/%s: %w", name, fam.name, err)
			}
			acc, err := cvProto(ctx, p, d, dsProto)
			if err != nil {
				return rows, fmt.Errorf("table2 %s/%s: %w", name, fam.name, err)
			}
			*fam.dst = acc
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteTable1 renders Table 1 rows like the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1. Accuracy by SVM on Frequent Combined Features vs Single Features\n")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s %9s\n", "Data", "Item_All", "Item_FS", "Item_RBF", "Pat_All", "Pat_FS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			r.Dataset, r.ItemAll, r.ItemFS, r.ItemRBF, r.PatAll, r.PatFS)
	}
}

// WriteTable2 renders Table 2 rows.
func WriteTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2. Accuracy by C4.5 on Frequent Combined Features vs Single Features\n")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s\n", "Data", "Item_All", "Item_FS", "Pat_All", "Pat_FS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.2f %9.2f %9.2f %9.2f\n",
			r.Dataset, r.ItemAll, r.ItemFS, r.PatAll, r.PatFS)
	}
}

// ScalabilityRow is one min_sup setting in Tables 3–5.
type ScalabilityRow struct {
	MinSupport int // absolute support count, as the paper reports
	Patterns   int // closed patterns mined (-1 = aborted / N/A)
	Time       time.Duration
	SVMAcc     float64 // percent; NaN-free: -1 marks N/A
	C45Acc     float64
	Infeasible bool
}

// ScalabilityConfig parameterizes one scalability table.
type ScalabilityConfig struct {
	Dataset string
	// AbsSupports are the absolute min_sup values to sweep (the paper's
	// x axis). A value of 1 exercises the exhaustive-enumeration row.
	AbsSupports []int
	// MaxPatterns is the enumeration budget past which a row is marked
	// infeasible (the paper's "N/A — cannot complete in days").
	MaxPatterns int
	// SampleRows optionally subsamples the dataset for faster runs
	// (0 = full size).
	SampleRows int
	// TestFrac is the held-out fraction for the accuracy columns.
	TestFrac float64
	Coverage int
	// MaxLen caps pattern length (0 = unlimited, matching the paper).
	MaxLen int
	// MaxMiningTime bounds each row's mining phase; exceeding it marks
	// the row infeasible, like the paper's "cannot complete in days"
	// note for min_sup = 1 (default 2 minutes).
	MaxMiningTime time.Duration
}

func (c ScalabilityConfig) withDefaults() ScalabilityConfig {
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 2_000_000
	}
	if c.TestFrac <= 0 {
		c.TestFrac = 0.1
	}
	if c.Coverage <= 0 {
		c.Coverage = 3
	}
	if c.MaxMiningTime <= 0 {
		c.MaxMiningTime = 2 * time.Minute
	}
	return c
}

// RunScalability reproduces one of Tables 3–5: per min_sup, the closed
// pattern count, mining+selection time, and SVM/C4.5 accuracy on the
// pattern-based feature space. Unlike the per-row MaxMiningTime, a
// canceled ctx aborts the whole sweep.
func RunScalability(ctx context.Context, cfg ScalabilityConfig) ([]ScalabilityRow, error) {
	cfg = cfg.withDefaults()
	d, err := datagen.ByName(cfg.Dataset, Seed)
	if err != nil {
		return nil, err
	}
	if cfg.SampleRows > 0 && cfg.SampleRows < d.NumRows() {
		tr, _, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(),
			1-float64(cfg.SampleRows)/float64(d.NumRows()), Seed)
		if err != nil {
			return nil, err
		}
		d = d.Subset(tr)
	}
	trainRows, testRows, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(), cfg.TestFrac, Seed)
	if err != nil {
		return nil, err
	}
	train := d.Subset(trainRows)
	b, err := dataset.Encode(train) // dense sets are fully categorical
	if err != nil {
		return nil, err
	}
	test := d.Subset(testRows)
	tb, err := dataset.Encode(test)
	if err != nil {
		return nil, err
	}

	var rows []ScalabilityRow
	for _, abs := range cfg.AbsSupports {
		rel := float64(abs) / float64(d.NumRows())
		row := ScalabilityRow{MinSupport: abs, SVMAcc: -1, C45Acc: -1}

		t0 := time.Now()
		mined, err := mining.MinePerClass(b, mining.PerClassOptions{
			MinSupport:  rel,
			Closed:      true,
			MaxPatterns: cfg.MaxPatterns,
			MaxLen:      cfg.MaxLen,
			MinLen:      2,
			Guard:       guard.New(ctx, guard.Limits{Timeout: cfg.MaxMiningTime}),
		})
		if err != nil && ctx.Err() != nil {
			// Run-level cancellation, not a per-row infeasibility.
			return rows, fmt.Errorf("scalability %s min_sup=%d: %w", cfg.Dataset, abs, err)
		}
		if errors.Is(err, mining.ErrPatternBudget) || errors.Is(err, mining.ErrDeadline) {
			row.Infeasible = true
			row.Patterns = -1
			row.Time = time.Since(t0)
			rows = append(rows, row)
			continue
		}
		if err != nil {
			return rows, fmt.Errorf("scalability %s min_sup=%d: %w", cfg.Dataset, abs, err)
		}
		row.Patterns = len(mined)

		cands := make([]featsel.Candidate, len(mined))
		for i, pt := range mined {
			cands[i] = featsel.Candidate{Items: pt.Items, Cover: pt.Cover()}
		}
		// Selection and both learners poll one guard on ctx, so a
		// canceled run stops mid-row instead of after it.
		g := guard.New(ctx, guard.Limits{})
		sel, err := featsel.MMRFS(cands, b.ClassMasks, b.Labels, featsel.Options{Coverage: cfg.Coverage, Guard: g})
		if err != nil {
			return rows, err
		}
		row.Time = time.Since(t0) // mining + feature selection, as in the paper

		selected := make([]mining.Pattern, len(sel.Selected))
		for i, idx := range sel.Selected {
			selected[i] = mined[idx]
		}
		mining.SortPatterns(selected)

		items := make([][]int32, len(selected))
		for i := range selected {
			items[i] = selected[i].Items
		}
		matcher := patmatch.Compile(items)
		var ms patmatch.Scratch
		fx := func(bb *dataset.Binary) [][]int32 {
			out := make([][]int32, bb.NumRows())
			for i := range out {
				out[i] = matcher.MatchAppend(append([]int32(nil), bb.Rows[i]...), bb.Rows[i], int32(b.NumItems()), &ms)
			}
			return out
		}
		xTrain := fx(b)
		xTest := fx(tb)

		svmModel, err := svm.Train(xTrain, b.Labels, b.NumClasses(), svm.Config{
			C: 1, NumFeatures: b.NumItems() + len(selected), Guard: g,
		})
		if err != nil {
			return rows, err
		}
		row.SVMAcc = accuracyPct(svmModel.PredictAll(xTest), tb.Labels)

		treeModel, err := c45Train(xTrain, b.Labels, b.NumClasses(), g)
		if err != nil {
			return rows, err
		}
		row.C45Acc = accuracyPct(treeModel.PredictAll(xTest), tb.Labels)

		rows = append(rows, row)
	}
	return rows, nil
}

func accuracyPct(pred, truth []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	c := 0
	for i := range pred {
		if pred[i] == truth[i] {
			c++
		}
	}
	return 100 * float64(c) / float64(len(pred))
}

// WriteScalability renders a Tables 3–5 style report.
func WriteScalability(w io.Writer, title string, rows []ScalabilityRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%9s %10s %10s %8s %8s\n", "min_sup", "#Patterns", "Time(s)", "SVM(%)", "C4.5(%)")
	for _, r := range rows {
		if r.Infeasible {
			fmt.Fprintf(w, "%9d %10s %10s %8s %8s\n", r.MinSupport, "N/A", "N/A", "N/A", "N/A")
			continue
		}
		fmt.Fprintf(w, "%9d %10d %10.3f %8.2f %8.2f\n",
			r.MinSupport, r.Patterns, r.Time.Seconds(), r.SVMAcc, r.C45Acc)
	}
}

// HarmonyRow is one dataset of the Section 5 comparison.
type HarmonyRow struct {
	Dataset string
	PatFS   float64
	Harmony float64
	CBA     float64
}

// RunHarmonyComparison reproduces one dataset of the Section 5 claim:
// Pat_FS beats a HARMONY-style rule-based classifier (and a CBA-style
// one) on the dense datasets.
func RunHarmonyComparison(ctx context.Context, name string, minSup float64, sampleRows int) (HarmonyRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return HarmonyRow{}, err
	}
	if sampleRows > 0 && sampleRows < d.NumRows() {
		tr, _, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(),
			1-float64(sampleRows)/float64(d.NumRows()), Seed)
		if err != nil {
			return HarmonyRow{}, err
		}
		d = d.Subset(tr)
	}
	trainRows, testRows, err := dataset.StratifiedSplit(d.Labels, d.NumClasses(), 0.2, Seed)
	if err != nil {
		return HarmonyRow{}, err
	}
	row := HarmonyRow{Dataset: name}

	patFS, err := mk(func() (*core.Pipeline, error) {
		return core.New(core.Config{UsePatterns: true, SelectPatterns: true, MinSupport: minSup})
	})
	if err != nil {
		return HarmonyRow{}, fmt.Errorf("harmony %s Pat_FS: %w", name, err)
	}
	acc, err := eval.HoldOut(ctx, patFS, d, trainRows, testRows)
	if err != nil {
		return HarmonyRow{}, fmt.Errorf("harmony %s Pat_FS: %w", name, err)
	}
	row.PatFS = 100 * acc

	// Rule-based baselines need the same discretized binary view;
	// cuts are fitted on the training rows only.
	train := d.Subset(trainRows)
	disc, err := discretize.Fit(train, discretize.Options{})
	if err != nil {
		return HarmonyRow{}, err
	}
	catTrain, err := disc.Apply(train)
	if err != nil {
		return HarmonyRow{}, err
	}
	bTrain, err := dataset.Encode(catTrain)
	if err != nil {
		return HarmonyRow{}, err
	}
	catTest, err := disc.Apply(d.Subset(testRows))
	if err != nil {
		return HarmonyRow{}, err
	}
	bTest, err := dataset.Encode(catTest)
	if err != nil {
		return HarmonyRow{}, err
	}

	hm, err := rules.TrainHarmony(bTrain, rules.HarmonyOptions{MinSupport: minSup, MaxLen: 5})
	if err != nil {
		return HarmonyRow{}, fmt.Errorf("harmony %s: %w", name, err)
	}
	cba, err := rules.TrainCBA(bTrain, rules.CBAOptions{MinSupport: minSup, MaxLen: 5})
	if err != nil {
		return HarmonyRow{}, fmt.Errorf("cba %s: %w", name, err)
	}
	hCorrect, cCorrect := 0, 0
	for i := 0; i < bTest.NumRows(); i++ {
		if hm.Predict(bTest.Rows[i]) == bTest.Labels[i] {
			hCorrect++
		}
		if cba.Predict(bTest.Rows[i]) == bTest.Labels[i] {
			cCorrect++
		}
	}
	row.Harmony = 100 * float64(hCorrect) / float64(bTest.NumRows())
	row.CBA = 100 * float64(cCorrect) / float64(bTest.NumRows())
	return row, nil
}

// WriteHarmonyHeader renders the comparison's title and column heads.
func WriteHarmonyHeader(w io.Writer) {
	fmt.Fprintf(w, "Section 5 comparison: Pat_FS vs rule-based classifiers\n")
	fmt.Fprintf(w, "%-10s %9s %9s %9s %9s\n", "Data", "Pat_FS", "HARMONY", "CBA", "Δ(H)")
}

// WriteHarmonyRow renders one dataset's row under WriteHarmonyHeader.
func WriteHarmonyRow(w io.Writer, r HarmonyRow) {
	fmt.Fprintf(w, "%-10s %9.2f %9.2f %9.2f %+9.2f\n", r.Dataset, r.PatFS, r.Harmony, r.CBA, r.PatFS-r.Harmony)
}

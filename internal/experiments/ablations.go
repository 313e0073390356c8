package experiments

import (
	"context"
	"fmt"
	"io"

	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/featsel"
	"dfpc/internal/guard"
	"dfpc/internal/mining"
	"dfpc/internal/parallel"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Dataset  string
	Variant  string
	Features int     // pattern pool / selected features, variant-specific
	Accuracy float64 // percent
	Pool     int     // mined pattern pool of the last CV fold
}

// WriteAblation renders an ablation result set.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %-28s %9s %9s\n", "Data", "Variant", "Features", "Acc(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-28s %9d %9.2f\n", r.Dataset, r.Variant, r.Features, r.Accuracy)
	}
}

// runPatFS cross-validates core Pat_FS, the reference row of the
// pool-kind and selector ablations, and returns its accuracy in
// percent.
func runPatFS(ctx context.Context, d *dataset.Dataset, minSup float64, proto Protocol) (*core.Pipeline, float64, error) {
	p := core.NewFamily(core.PatFS, core.Config{MinSupport: minSup, Workers: proto.Workers})
	acc, err := cvProto(ctx, p, d, proto)
	return p, acc, err
}

// RunAblationClosedVsAll compares closed patterns against all frequent
// patterns as the feature pool (same min_sup, same MMRFS selection).
// Closed mining should give an equally accurate model from a much
// smaller pool.
func RunAblationClosedVsAll(ctx context.Context, name string, minSup float64, proto Protocol) ([]AblationRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	const closed = "closed"
	ref, acc, err := runPatFS(ctx, d, minSup, proto)
	if err != nil {
		return nil, fmt.Errorf("closed-vs-all %s/%s: %w", name, closed, err)
	}
	pool := ref.Stats.MinedCount
	rows := []AblationRow{{Dataset: name, Variant: closed, Features: pool, Accuracy: acc, Pool: pool}}

	const all = "all frequent"
	v := &variantPipeline{minSup: minSup, allFrequent: true, workers: proto.Workers}
	if acc, err = cvProto(ctx, v, d, proto); err != nil {
		return rows, fmt.Errorf("closed-vs-all %s/%s: %w", name, all, err)
	}
	return append(rows, AblationRow{Dataset: name, Variant: all, Features: v.pool, Accuracy: acc, Pool: v.pool}), nil
}

// RunAblationRedundancy compares MMRFS against pure relevance top-k
// selection with the same feature budget: the redundancy term should
// not hurt, and typically helps, at equal feature count.
func RunAblationRedundancy(ctx context.Context, name string, minSup float64, proto Protocol) ([]AblationRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	// First, find how many features MMRFS selects so top-k gets the
	// same budget.
	ref, acc, err := runPatFS(ctx, d, minSup, proto)
	if err != nil {
		return nil, fmt.Errorf("redundancy ablation %s mmrfs: %w", name, err)
	}
	rows := []AblationRow{{Dataset: name, Variant: "MMRFS (relevance+redundancy)",
		Features: ref.Stats.FeatureCount, Accuracy: acc, Pool: ref.Stats.MinedCount}}

	v := &variantPipeline{minSup: minSup, topK: ref.Stats.FeatureCount, workers: proto.Workers}
	if acc, err = cvProto(ctx, v, d, proto); err != nil {
		return rows, fmt.Errorf("redundancy ablation %s topk: %w", name, err)
	}
	return append(rows, AblationRow{Dataset: name, Variant: "top-k relevance only",
		Features: v.topK, Accuracy: acc, Pool: v.pool}), nil
}

// variantPipeline is core Pat_FS with one stage swapped: allFrequent
// mines all frequent patterns instead of the closed ones,
// and topK > 0 keeps the topK most informative patterns instead of
// running MMRFS. Everything else is core's default: equal-frequency
// discretization, the full item space, patterns of length 2..6 under a
// 2,000,000-pattern budget, δ = 3, and a linear SVM with C = 1.
type variantPipeline struct {
	minSup      float64
	allFrequent bool
	topK        int
	workers     parallel.Workers

	disc     *discretize.Discretizer
	numItems int
	matcher  *patmatch.Matcher // compiled selected patterns
	model    *svm.Model
	pool     int // mined pool size of the last Fit
}

func (p *variantPipeline) FitContext(ctx context.Context, d *dataset.Dataset, rows []int) error {
	train := d.Subset(rows)
	var err error
	p.disc, err = discretize.Fit(train, discretize.Options{})
	if err != nil {
		return err
	}
	b, err := p.encode(train)
	if err != nil {
		return err
	}
	p.numItems = b.NumItems()
	g := guard.New(ctx, guard.Limits{})
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{
		MinSupport:  p.minSup,
		Closed:      !p.allFrequent,
		MaxPatterns: 2_000_000,
		MaxLen:      6,
		MinLen:      2,
		Workers:     p.workers,
		Guard:       g,
	})
	if err != nil {
		return err
	}
	p.pool = len(mined)
	cands := make([]featsel.Candidate, len(mined))
	for i, pt := range mined {
		cands[i] = featsel.Candidate{Items: pt.Items, Cover: pt.Cover()}
	}
	var sel *featsel.Result
	if p.topK > 0 {
		sel = featsel.TopK(cands, b.ClassMasks, featsel.InfoGain, p.topK)
	} else if sel, err = featsel.MMRFS(cands, b.ClassMasks, b.Labels, featsel.Options{Coverage: 3, Workers: p.workers, Guard: g}); err != nil {
		return err
	}
	patterns := make([]mining.Pattern, len(sel.Selected))
	for i, idx := range sel.Selected {
		patterns[i] = mined[idx]
	}
	mining.SortPatterns(patterns)
	items := make([][]int32, len(patterns))
	for i := range patterns {
		items[i] = patterns[i].Items
	}
	p.matcher = patmatch.Compile(items)

	var ms patmatch.Scratch
	x := make([][]int32, b.NumRows())
	for i := range x {
		x[i] = p.fv(b.Rows[i], &ms)
	}
	p.model, err = svm.Train(x, b.Labels, b.NumClasses(), svm.Config{C: 1, NumFeatures: p.numItems + len(patterns), Workers: p.workers, Guard: g})
	return err
}

func (p *variantPipeline) encode(d *dataset.Dataset) (*dataset.Binary, error) {
	cat, err := p.disc.Apply(d)
	if err != nil {
		return nil, err
	}
	return dataset.Encode(cat)
}

func (p *variantPipeline) fv(tx []int32, ms *patmatch.Scratch) []int32 {
	out := make([]int32, 0, len(tx)+p.matcher.NumPatterns())
	out = append(out, tx...)
	return p.matcher.MatchAppend(out, tx, int32(p.numItems), ms)
}

func (p *variantPipeline) PredictBatch(_ context.Context, d *dataset.Dataset, rows []int, out []int) error {
	b, err := p.encode(d.Subset(rows))
	if err != nil {
		return err
	}
	var ms patmatch.Scratch
	sc := p.model.NewScorer()
	for i := range rows {
		out[i], _ = sc.PredictMargin(p.fv(b.Rows[i], &ms))
	}
	return nil
}

// RunAblationRelevance compares information gain vs. Fisher score as
// MMRFS's relevance measure.
func RunAblationRelevance(ctx context.Context, name string, minSup float64, proto Protocol) ([]AblationRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	var rows []AblationRow
	for _, rel := range []featsel.Relevance{featsel.InfoGain, featsel.Fisher} {
		p := core.NewFamily(core.PatFS, core.Config{MinSupport: minSup, Relevance: rel, Workers: proto.Workers})
		acc, err := cvProto(ctx, p, d, proto)
		if err != nil {
			return rows, fmt.Errorf("relevance ablation %s/%v: %w", name, rel, err)
		}
		rows = append(rows, AblationRow{Dataset: name, Variant: rel.String(), Features: p.Stats.FeatureCount, Accuracy: acc})
	}
	return rows, nil
}

// RunAblationCoverage sweeps MMRFS's δ.
func RunAblationCoverage(ctx context.Context, name string, minSup float64, deltas []int, proto Protocol) ([]AblationRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	var rows []AblationRow
	for _, delta := range deltas {
		p := core.NewFamily(core.PatFS, core.Config{MinSupport: minSup, Coverage: delta, Workers: proto.Workers})
		acc, err := cvProto(ctx, p, d, proto)
		if err != nil {
			return rows, fmt.Errorf("coverage ablation %s/δ=%d: %w", name, delta, err)
		}
		rows = append(rows, AblationRow{
			Dataset: name, Variant: fmt.Sprintf("δ = %d", delta),
			Features: p.Stats.FeatureCount, Accuracy: acc,
		})
	}
	return rows, nil
}

// RunAblationMinSupStrategy compares the automatic θ*(IG0) min_sup
// strategy against hand-set values.
func RunAblationMinSupStrategy(ctx context.Context, name string, handSet []float64, proto Protocol) ([]AblationRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	auto := core.NewFamily(core.PatFS, core.Config{MinSupport: -1, Workers: proto.Workers})
	acc, err := cvProto(ctx, auto, d, proto)
	if err != nil {
		return nil, fmt.Errorf("strategy ablation %s auto: %w", name, err)
	}
	rows := []AblationRow{{
		Dataset:  name,
		Variant:  fmt.Sprintf("auto θ*(IG0) → %.3f", auto.Stats.MinSupport),
		Features: auto.Stats.FeatureCount, Accuracy: acc,
	}}
	for _, ms := range handSet {
		p := core.NewFamily(core.PatFS, core.Config{MinSupport: ms, Workers: proto.Workers})
		acc, err := cvProto(ctx, p, d, proto)
		if err != nil {
			return rows, fmt.Errorf("strategy ablation %s/%v: %w", name, ms, err)
		}
		rows = append(rows, AblationRow{
			Dataset: name, Variant: fmt.Sprintf("hand-set %.3f", ms),
			Features: p.Stats.FeatureCount, Accuracy: acc,
		})
	}
	return rows, nil
}

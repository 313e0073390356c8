package main

import (
	"fmt"
	"runtime"
	"slices"

	"dfpc"
	"dfpc/internal/c45"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/featsel"
	"dfpc/internal/mining"
	"dfpc/internal/modelobs"
	"dfpc/internal/patmatch"
	"dfpc/internal/svm"
)

// The core pipeline's defaults for a Pat_FS fit, which the replay hands
// to each layer explicitly. If core's defaults change, the replay stops
// matching Fit and the traced run fails its equivalence checks.
const (
	maxPatterns   = 2_000_000
	maxPatternLen = 6
	coverage      = 3
)

// rowCoder encodes one raw row into sorted item IDs of the fitted item
// space, value by value, as the predict path of internal/core does:
// item IDs are laid out attribute-major, missing cells contribute no
// item, numeric cells map to their bin.
type rowCoder struct {
	disc    *discretize.Discretizer
	base    []int32
	numeric []bool
	vals    []int
}

func newRowCoder(disc *discretize.Discretizer) (rowCoder, int) {
	schema := disc.SourceSchema()
	c := rowCoder{disc: disc, base: make([]int32, len(schema)), numeric: make([]bool, len(schema)), vals: make([]int, len(schema))}
	n := 0
	for a, attr := range schema {
		c.base[a], c.numeric[a], c.vals[a] = int32(n), attr.Kind == dataset.Numeric, disc.Bins(a)
		n += c.vals[a]
	}
	return c, n
}

func (c *rowCoder) encode(dst []int32, row []float64) ([]int32, error) {
	if len(row) != len(c.base) {
		return nil, fmt.Errorf("row has %d cells, want %d", len(row), len(c.base))
	}
	for a, v := range row {
		switch {
		case dataset.IsMissing(v):
		case c.numeric[a]:
			dst = append(dst, c.base[a]+int32(c.disc.BinOf(a, v)))
		default:
			vi := int(v)
			if float64(vi) != v || vi < 0 || vi >= c.vals[a] {
				return nil, fmt.Errorf("attr %d: bad category index %v", a, v)
			}
			dst = append(dst, c.base[a]+int32(vi))
		}
	}
	return dst, nil
}

// replayed is the model a layer-by-layer replay of Fit builds, with the
// counts and allocations its layers reported.
type replayed struct {
	coder    rowCoder
	numItems int
	matcher  *patmatch.Matcher // nil when no pattern was selected
	svm      *svm.Scorer       // exactly one of svm and tree is set
	tree     *c45.Model

	mined, selected, nodes            int
	iterations, supportVectors, pairs int
	treeNodes                         int
	mineAllocMB, selectAllocMB        float64
}

// featurize appends tx's feature vector to dst: every item, then the
// matched pattern features numbered from numItems.
func (rp *replayed) featurize(dst, tx []int32, ms *patmatch.Scratch) []int32 {
	dst = append(dst, tx...)
	if rp.matcher != nil {
		dst = rp.matcher.MatchAppend(dst, tx, int32(rp.numItems), ms)
	}
	return dst
}

func candidates(b *dataset.Binary, ps []mining.Pattern) []featsel.Candidate {
	cands := make([]featsel.Candidate, len(ps))
	for i, pt := range ps {
		cands[i] = featsel.Candidate{Items: pt.Items, Cover: b.Cover(pt.Items)}
	}
	return cands
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// replayFit repeats what Classifier.Fit does for the workload's Pat_FS
// pipeline, one public layer call at a time, with a span around each
// call. Allocation of mining and selection is read only when tracing.
// The interpretability report Fit also builds is not replayed; its cost
// is part of core.unattributed_frac.
func replayFit(t *tracer, w *workload, s split) (*replayed, error) {
	root := t.begin("fit")
	defer t.end(root)
	train := s.d.Subset(s.train)
	sp := t.begin("discretize.fit")
	disc, err := discretize.Fit(train, discretize.Options{})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("discretize: %w", err)
	}
	sp = t.begin("discretize.apply")
	cat, err := disc.Apply(train)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("discretize apply: %w", err)
	}
	sp = t.begin("dataset.encode")
	b, err := dataset.Encode(cat)
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("encode: %w", err)
	}
	rp := &replayed{}
	rp.coder, rp.numItems = newRowCoder(disc)

	var mb float64
	if t != nil {
		mb = totalAllocMB()
	}
	sp = t.begin("mining.mine")
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{
		MinSupport: w.minSup, Closed: true, MaxPatterns: maxPatterns, MaxLen: maxPatternLen, MinLen: 2, Workers: 1,
	})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("mine: %w", err)
	}
	if t != nil {
		now := totalAllocMB()
		rp.mineAllocMB, mb = now-mb, now
	}
	sp = t.begin("featsel.select")
	res, err := featsel.MMRFS(candidates(b, mined), b.ClassMasks, b.Labels, featsel.Options{Coverage: coverage, Workers: 1})
	t.end(sp)
	if err != nil {
		return nil, fmt.Errorf("select: %w", err)
	}
	if t != nil {
		rp.selectAllocMB = totalAllocMB() - mb
	}
	pats := make([]mining.Pattern, len(res.Selected))
	for i, idx := range res.Selected {
		pats[i] = mined[idx]
	}
	mining.SortPatterns(pats)
	rp.mined, rp.selected = len(mined), len(pats)

	if len(pats) > 0 {
		sp = t.begin("patmatch.compile")
		items := make([][]int32, len(pats))
		for i := range pats {
			items[i] = pats[i].Items
		}
		rp.matcher = patmatch.Compile(items)
		t.end(sp)
		rp.nodes = rp.matcher.NumNodes()
	}
	sp = t.begin("patmatch.featurize")
	x := make([][]int32, b.NumRows())
	var ms patmatch.Scratch
	ms.Grow(rp.matcher)
	for i, row := range b.Rows {
		x[i] = rp.featurize(make([]int32, 0, len(row)+len(pats)), row, &ms)
	}
	t.end(sp)

	var score func([]int32) (int, float64)
	scoreSpan := "svm.baseline_score"
	if w.learner == dfpc.C45 {
		sp = t.begin("c45.train")
		rp.tree, err = c45.Train(x, b.Labels, b.NumClasses(), c45.Config{})
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("c45: %w", err)
		}
		rp.treeNodes = rp.tree.Size()
		score, scoreSpan = rp.tree.PredictConf, "c45.baseline_score"
	} else {
		sp = t.begin("svm.train")
		m, err := svm.Train(x, b.Labels, b.NumClasses(), svm.Config{C: 1, NumFeatures: rp.numItems + len(pats), Workers: 1})
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("svm: %w", err)
		}
		rp.svm = m.NewScorer()
		rp.iterations, rp.supportVectors, rp.pairs = m.Iterations(), m.SupportVectors(), m.BinaryProblems()
		score = rp.svm.PredictMargin
	}

	// The drift baseline Fit computes after learning: fire rates of the
	// selected patterns, then one scoring pass over the training rows
	// whose confidences are sorted for the low-confidence cut.
	sp = t.begin("modelobs.baseline")
	if len(pats) > 0 {
		fr := t.begin("featsel.fire_rates")
		featsel.FireRates(candidates(b, pats), len(x))
		t.end(fr)
	}
	sc := t.begin(scoreSpan)
	confs := make([]int64, len(x))
	for i, fv := range x {
		_, c := score(fv)
		confs[i] = modelobs.ConfMicro(c)
	}
	t.end(sc)
	slices.Sort(confs)
	t.end(sp)
	return rp, nil
}

// rowScratch is one caller's reusable predict state for a replayed
// model.
type rowScratch struct {
	tx, fv []int32
	ms     patmatch.Scratch
}

// predict classifies one raw row through the replayed layers: encode,
// match, score, each in its own span under a "predict" span.
func (rp *replayed) predict(t *tracer, sc *rowScratch, row []float64) (int, error) {
	root := t.begin("predict")
	defer t.end(root)
	sp := t.begin("discretize.rowcode")
	tx, err := rp.coder.encode(sc.tx[:0], row)
	t.end(sp)
	if err != nil {
		return 0, err
	}
	sc.tx = tx
	sp = t.begin("patmatch.match")
	sc.fv = rp.featurize(sc.fv[:0], tx, &sc.ms)
	t.end(sp)
	if rp.tree != nil {
		sp = t.begin("c45.score")
		cls := rp.tree.Predict(sc.fv)
		t.end(sp)
		return cls, nil
	}
	sp = t.begin("svm.score")
	cls := rp.svm.Predict(sc.fv)
	t.end(sp)
	return cls, nil
}

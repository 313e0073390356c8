// Package patclass is the paper's classification loop (Section 3) for
// pattern types beyond itemsets — the sequences and graphs its
// conclusion names as the framework's next targets: mine frequent
// patterns per class partition (mining.PerClass, the same loop the
// itemset pipeline runs), select the discriminative ones with
// MMRFS over their training coverage, and train a linear SVM on binary
// presence features (the instance's base labels plus the selected
// patterns). A pattern type plugs in through Hooks; internal/seqmining
// and internal/graphmining are its two users. Itemsets keep their own
// pipeline in internal/core, which adds discretization, the compiled
// matcher, and the model snapshot.
package patclass

import (
	"context"
	"errors"
	"fmt"

	"dfpc/internal/bitset"
	"dfpc/internal/featsel"
	"dfpc/internal/guard"
	"dfpc/internal/mining"
	"dfpc/internal/svm"
)

// Hooks are the pattern-type specific parts of the loop: I is one
// instance (a sequence, a graph) and P one mined pattern.
type Hooks[I, P any] struct {
	// Name prefixes the loop's errors (the calling package's name).
	Name string
	// Mine mines one class partition at absolute support minSup under
	// g, and fails with mining.ErrPatternBudget on the attempt to emit
	// pattern maxPatterns+1 (0 = unlimited); see mining.PerClass.Mine.
	Mine func(db []I, minSup, maxPatterns int, g *guard.Guard) ([]P, error)
	// MinLen drops mined patterns shorter than this by Len before
	// dedup, as mining.PerClassOptions.MinLen; 0 keeps everything.
	MinLen int
	Len    func(*P) int
	// Key is the canonical key that deduplicates patterns across
	// classes.
	Key func(*P) string
	// Contains reports whether an instance contains a pattern.
	Contains func(I, *P) bool
	// Labels lists an instance's base labels; label l is feature l.
	Labels func(I) []int32
	// Sort puts the selected patterns into canonical feature order.
	Sort func([]P)
}

// OrDefault returns v when it is positive and def otherwise: how the
// classifiers read an unset knob.
func OrDefault[T int | float64](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// Params are the loop's knobs, with the caller's defaults applied.
type Params struct {
	MinSupport  float64 // relative per-class mining support
	Coverage    int     // MMRFS's δ
	MaxPatterns int     // cap on the mined pool across classes (> 0)
	SVMC        float64 // soft-margin penalty
}

// Model is a fitted classifier. Features 0..numBase-1 are base labels
// and numBase+j is the presence of Patterns()[j].
type Model[I, P any] struct {
	hooks    Hooks[I, P]
	numBase  int
	patterns []P
	svm      *svm.Model
	// Mined is the size of the deduplicated pool MMRFS selected from.
	Mined int
}

// Fit trains on db with labels y in [0, numClasses). The class
// partitions mine through mining.PerClass, the loop itemsets use too,
// at GOMAXPROCS workers; ctx cancels mining, MMRFS and the SVM.
func Fit[I, P any](ctx context.Context, h Hooks[I, P], db []I, y []int, numClasses int, prm Params) (*Model[I, P], error) {
	if len(db) == 0 {
		return nil, fmt.Errorf("%s: empty training set", h.Name)
	}
	if len(db) != len(y) {
		return nil, fmt.Errorf("%s: %d instances, %d labels", h.Name, len(db), len(y))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("%s: numClasses = %d", h.Name, numClasses)
	}
	m := &Model[I, P]{hooks: h}
	byClass := make([][]I, numClasses)
	sizes := make([]int, numClasses)
	for i, inst := range db {
		if y[i] < 0 || y[i] >= numClasses {
			return nil, fmt.Errorf("%s: label %d out of range [0,%d)", h.Name, y[i], numClasses)
		}
		byClass[y[i]] = append(byClass[y[i]], inst)
		sizes[y[i]]++
		for _, l := range h.Labels(inst) {
			m.numBase = max(m.numBase, int(l)+1)
		}
	}

	g := guard.New(ctx, guard.Limits{})
	pool, err := mining.PerClass[P]{
		Sizes: sizes,
		Mine: func(pt mining.Partition) ([]P, error) {
			return h.Mine(byClass[pt.Class], pt.MinSupport, pt.MaxPatterns, pt.Guard)
		},
		Key: h.Key,
		Len: h.Len,
	}.Run(mining.PerClassOptions{
		MinSupport: prm.MinSupport, MaxPatterns: prm.MaxPatterns, MinLen: h.MinLen, Guard: g,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", h.Name, err)
	}
	m.Mined = len(pool)

	// MMRFS over the pool, each pattern's coverage computed once over
	// the full training database.
	classMasks := make([]*bitset.Bitset, numClasses)
	for cl := range classMasks {
		classMasks[cl] = bitset.New(len(db))
	}
	for i, yi := range y {
		classMasks[yi].Set(i)
	}
	cands := make([]featsel.Candidate, len(pool))
	for i := range pool {
		cov := bitset.New(len(db))
		for r, inst := range db {
			if h.Contains(inst, &pool[i]) {
				cov.Set(r)
			}
		}
		cands[i] = featsel.Candidate{Cover: cov}
	}
	sel, err := featsel.MMRFS(cands, classMasks, y, featsel.Options{Coverage: prm.Coverage, Guard: g})
	if err != nil {
		return nil, err
	}
	m.patterns = make([]P, len(sel.Selected))
	for i, idx := range sel.Selected {
		m.patterns[i] = pool[idx]
	}
	h.Sort(m.patterns)

	x := make([][]int32, len(db))
	for i, inst := range db {
		x[i] = m.featureVector(inst)
	}
	m.svm, err = svm.Train(x, y, numClasses, svm.Config{
		C:           prm.SVMC,
		NumFeatures: m.numBase + len(m.patterns),
		Guard:       g,
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// featureVector encodes an instance as sorted binary features: the
// base labels present, then the matched patterns.
func (m *Model[I, P]) featureVector(inst I) []int32 {
	// A dense presence slice instead of a map: one allocation sized by
	// the label vocabulary, no per-entry bucket churn on the hot path.
	present := make([]bool, m.numBase)
	for _, l := range m.hooks.Labels(inst) {
		if int(l) < m.numBase {
			present[l] = true
		}
	}
	out := make([]int32, 0, m.numBase+len(m.patterns))
	for l, ok := range present {
		if ok {
			out = append(out, int32(l))
		}
	}
	for j := range m.patterns {
		if m.hooks.Contains(inst, &m.patterns[j]) {
			out = append(out, int32(m.numBase+j))
		}
	}
	return out
}

// Patterns returns a copy of the selected patterns in feature order
// (empty for a nil, unfitted model).
func (m *Model[I, P]) Patterns() []P {
	if m == nil {
		return []P{}
	}
	return append(make([]P, 0, len(m.patterns)), m.patterns...)
}

// ErrNotFitted is the error of Predict and PredictAll on a nil,
// unfitted model.
var ErrNotFitted = errors.New("patclass: Predict before Fit")

// Predict classifies one instance.
func (m *Model[I, P]) Predict(inst I) (int, error) {
	if m == nil {
		return 0, ErrNotFitted
	}
	cls, _ := m.svm.NewScorer().PredictMargin(m.featureVector(inst))
	return cls, nil
}

// PredictAll classifies every instance.
func (m *Model[I, P]) PredictAll(db []I) ([]int, error) {
	if m == nil {
		return nil, ErrNotFitted
	}
	out := make([]int, len(db))
	sc := m.svm.NewScorer()
	for i, inst := range db {
		out[i], _ = sc.PredictMargin(m.featureVector(inst))
	}
	return out, nil
}

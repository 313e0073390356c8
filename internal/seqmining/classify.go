package seqmining

import (
	"errors"
	"slices"

	"dfpc/internal/patclass"
)

// Classifier applies the paper's framework to sequence data: frequent
// subsequences are mined per class with PrefixSpan, MMRFS selects the
// discriminative ones, and a linear SVM is trained on the binary
// presence features (single events plus selected subsequences). The
// loop itself is patclass.Fit.
type Classifier struct {
	// MinSupport is the relative per-class mining support (default 0.2).
	MinSupport float64
	// Coverage is MMRFS's δ (default 3).
	Coverage int
	// MaxLen caps subsequence length (default 4).
	MaxLen int
	// MaxPatterns caps the mined pool (default 200000).
	MaxPatterns int
	// SVMC is the soft-margin penalty (default 1).
	SVMC float64

	model *patclass.Model[Sequence, Pattern]

	// Stats from the last Fit.
	MinedCount    int
	SelectedCount int
}

func (c *Classifier) withDefaults() {
	if c.MinSupport <= 0 {
		c.MinSupport = 0.2
	}
	if c.Coverage <= 0 {
		c.Coverage = 3
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 4
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 200_000
	}
	if c.SVMC <= 0 {
		c.SVMC = 1
	}
}

// Fit trains on the sequence database with labels y in [0, numClasses).
func (c *Classifier) Fit(db []Sequence, y []int, numClasses int) error {
	c.withDefaults()
	m, err := patclass.Fit(patclass.Hooks[Sequence, Pattern]{
		Name: "seqmining",
		Mine: func(db []Sequence, minSup, maxPatterns int) ([]Pattern, error) {
			ps, err := PrefixSpan(db, Options{MinSupport: minSup, MaxLen: c.MaxLen, MaxPatterns: maxPatterns})
			// Single events are base features already.
			return slices.DeleteFunc(ps, func(p Pattern) bool { return p.Len() < 2 }), err
		},
		ErrBudget: ErrPatternBudget,
		Key:       (*Pattern).Key,
		Contains:  func(s Sequence, p *Pattern) bool { return Contains(s, p.Events) },
		Labels:    func(s Sequence) []int32 { return s },
		Sort:      SortPatterns,
	}, db, y, numClasses, patclass.Params{
		MinSupport: c.MinSupport, Coverage: c.Coverage, MaxPatterns: c.MaxPatterns, SVMC: c.SVMC,
	})
	c.model = m
	if err != nil {
		return err
	}
	c.MinedCount, c.SelectedCount = m.Mined, len(m.Patterns())
	return nil
}

// Patterns returns the subsequence features selected by the last Fit,
// in canonical order.
func (c *Classifier) Patterns() []Pattern { return c.model.Patterns() }

var errNotFitted = errors.New("seqmining: Predict before Fit")

// Predict classifies one sequence.
func (c *Classifier) Predict(s Sequence) (int, error) {
	if c.model == nil {
		return 0, errNotFitted
	}
	return c.model.Predict(s), nil
}

// PredictAll classifies every sequence.
func (c *Classifier) PredictAll(db []Sequence) ([]int, error) {
	if c.model == nil {
		return nil, errNotFitted
	}
	return c.model.PredictAll(db), nil
}

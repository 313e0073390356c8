package seqmining

import (
	"context"

	"dfpc/internal/guard"
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
	MinedCount, FeatureCount int
}

// Fit trains on the sequence database with labels y in [0, numClasses).
// Single events are base features already, so the pool keeps only
// subsequences of length ≥ 2.
func (c *Classifier) Fit(ctx context.Context, db []Sequence, y []int, numClasses int) error {
	m, err := patclass.Fit(ctx, patclass.Hooks[Sequence, Pattern]{
		Name: "seqmining",
		Mine: func(db []Sequence, minSup, maxPatterns int, g *guard.Guard) ([]Pattern, error) {
			return PrefixSpan(db, Options{
				MinSupport: minSup, MaxLen: patclass.OrDefault(c.MaxLen, 4), MaxPatterns: maxPatterns, Guard: g,
			})
		},
		MinLen:   2,
		Len:      (*Pattern).Len,
		Key:      (*Pattern).Key,
		Contains: func(s Sequence, p *Pattern) bool { return Contains(s, p.Events) },
		Labels:   func(s Sequence) []int32 { return s },
		Sort:     SortPatterns,
	}, db, y, numClasses, patclass.Params{
		MinSupport:  patclass.OrDefault(c.MinSupport, 0.2),
		Coverage:    patclass.OrDefault(c.Coverage, 3),
		MaxPatterns: patclass.OrDefault(c.MaxPatterns, 200_000),
		SVMC:        patclass.OrDefault(c.SVMC, 1),
	})
	c.model = m
	if err != nil {
		return err
	}
	c.MinedCount, c.FeatureCount = m.Mined, len(m.Patterns())
	return nil
}

// Patterns returns the subsequence features selected by the last Fit,
// in canonical order.
func (c *Classifier) Patterns() []Pattern { return c.model.Patterns() }

// Predict classifies one sequence.
func (c *Classifier) Predict(s Sequence) (int, error) { return c.model.Predict(s) }

// PredictAll classifies every sequence.
func (c *Classifier) PredictAll(db []Sequence) ([]int, error) { return c.model.PredictAll(db) }

package graphmining

import (
	"errors"

	"dfpc/internal/patclass"
)

// Classifier applies the paper's framework to graph data (the setting
// of its reference [7]): frequent connected subgraphs are mined per
// class, MMRFS selects the discriminative ones, and an SVM is trained
// on binary presence features (single vertex labels plus selected
// subgraphs). The loop itself is patclass.Fit.
type Classifier struct {
	// MinSupport is the relative per-class mining support (default 0.2).
	MinSupport float64
	// Coverage is MMRFS's δ (default 3).
	Coverage int
	// MaxEdges caps subgraph size (default 4).
	MaxEdges int
	// MaxPatterns caps the mined pool (default 50000).
	MaxPatterns int
	// SVMC is the soft-margin penalty (default 1).
	SVMC float64

	model *patclass.Model[*Graph, Pattern]

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
	if c.MaxEdges <= 0 {
		c.MaxEdges = 4
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 50_000
	}
	if c.SVMC <= 0 {
		c.SVMC = 1
	}
}

// Fit trains on the graph database with labels y in [0, numClasses).
// Single-edge patterns stay in the pool: they correlate with the
// vertex-label features but are the graph analogue of length-2
// itemsets.
func (c *Classifier) Fit(db []*Graph, y []int, numClasses int) error {
	c.withDefaults()
	m, err := patclass.Fit(patclass.Hooks[*Graph, Pattern]{
		Name: "graphmining",
		Mine: func(db []*Graph, minSup, maxPatterns int) ([]Pattern, error) {
			return Mine(db, Options{MinSupport: minSup, MaxEdges: c.MaxEdges, MaxPatterns: maxPatterns})
		},
		ErrBudget: ErrPatternBudget,
		Key:       (*Pattern).Key,
		Contains:  func(g *Graph, p *Pattern) bool { return ContainsSubgraph(g, p.Graph) },
		Labels:    func(g *Graph) []int32 { return g.VertexLabels },
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

// Patterns returns the selected subgraph features.
func (c *Classifier) Patterns() []Pattern { return c.model.Patterns() }

var errNotFitted = errors.New("graphmining: Predict before Fit")

// Predict classifies one graph.
func (c *Classifier) Predict(g *Graph) (int, error) {
	if c.model == nil {
		return 0, errNotFitted
	}
	return c.model.Predict(g), nil
}

// PredictAll classifies every graph.
func (c *Classifier) PredictAll(db []*Graph) ([]int, error) {
	if c.model == nil {
		return nil, errNotFitted
	}
	return c.model.PredictAll(db), nil
}

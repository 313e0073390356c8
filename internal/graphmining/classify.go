package graphmining

import (
	"context"

	"dfpc/internal/guard"
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
	MinedCount, FeatureCount int
}

// Fit trains on the graph database with labels y in [0, numClasses).
// Single-edge patterns stay in the pool: they correlate with the
// vertex-label features but are the graph analogue of length-2
// itemsets.
func (c *Classifier) Fit(ctx context.Context, db []*Graph, y []int, numClasses int) error {
	m, err := patclass.Fit(ctx, patclass.Hooks[*Graph, Pattern]{
		Name: "graphmining",
		Mine: func(db []*Graph, minSup, maxPatterns int, g *guard.Guard) ([]Pattern, error) {
			return Mine(db, Options{
				MinSupport: minSup, MaxEdges: patclass.OrDefault(c.MaxEdges, 4), MaxPatterns: maxPatterns, Guard: g,
			})
		},
		Key:      (*Pattern).Key,
		Contains: func(g *Graph, p *Pattern) bool { return ContainsSubgraph(g, p.Graph) },
		Labels:   func(g *Graph) []int32 { return g.VertexLabels },
		Sort:     SortPatterns,
	}, db, y, numClasses, patclass.Params{
		MinSupport:  patclass.OrDefault(c.MinSupport, 0.2),
		Coverage:    patclass.OrDefault(c.Coverage, 3),
		MaxPatterns: patclass.OrDefault(c.MaxPatterns, 50_000),
		SVMC:        patclass.OrDefault(c.SVMC, 1),
	})
	c.model = m
	if err != nil {
		return err
	}
	c.MinedCount, c.FeatureCount = m.Mined, len(m.Patterns())
	return nil
}

// Patterns returns the selected subgraph features.
func (c *Classifier) Patterns() []Pattern { return c.model.Patterns() }

// Predict classifies one graph.
func (c *Classifier) Predict(g *Graph) (int, error) { return c.model.Predict(g) }

// PredictAll classifies every graph.
func (c *Classifier) PredictAll(db []*Graph) ([]int, error) { return c.model.PredictAll(db) }

package core

import (
	"fmt"

	"dfpc/internal/bitset"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
)

// PatternStat describes one feature (single item or mined pattern) with
// the measures plotted in Figures 1–3: length, support, information
// gain, and Fisher score.
type PatternStat struct {
	Items      []int32
	Length     int
	Support    int     // absolute support
	RelSupport float64 // θ
	InfoGain   float64
	Fisher     float64
}

// analyzeMaxLen and analyzeMaxPatterns bound the pool AnalyzePatterns
// mines: closed patterns of length at most 6, at most 500,000 of them.
const (
	analyzeMaxLen      = 6
	analyzeMaxPatterns = 500_000
)

// AnalyzeOptions configures AnalyzePatterns.
type AnalyzeOptions struct {
	// MinSupport is the relative per-class mining threshold (default 0.1).
	MinSupport float64
	// IncludeSingles adds every single item as a length-1 entry, so the
	// Figure 1 comparison of single features vs. patterns is possible.
	IncludeSingles bool
}

// AnalyzePatterns discretizes and encodes a dataset, mines closed
// patterns per class, and returns the measure statistics for each
// feature along with the binary encoding (for bound overlays, which
// need the class prior).
func AnalyzePatterns(d *dataset.Dataset, opt AnalyzeOptions) ([]PatternStat, *dataset.Binary, error) {
	if opt.MinSupport <= 0 {
		opt.MinSupport = 0.1
	}
	cat, err := discretize.FitApply(d, discretize.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze discretize: %w", err)
	}
	b, err := dataset.Encode(cat)
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze encode: %w", err)
	}
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{
		MinSupport:  opt.MinSupport,
		Closed:      true,
		MaxPatterns: analyzeMaxPatterns,
		MaxLen:      analyzeMaxLen,
		MinLen:      2,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze mining: %w", err)
	}

	n := float64(b.NumRows())
	var stats []PatternStat
	add := func(items []int32, cover *bitset.Bitset) {
		sup := cover.Count()
		stats = append(stats, PatternStat{
			Items:      items,
			Length:     len(items),
			Support:    sup,
			RelSupport: float64(sup) / n,
			InfoGain:   measures.InfoGain(cover, b.ClassMasks),
			Fisher:     measures.FisherScore(cover, b.ClassMasks),
		})
	}
	if opt.IncludeSingles {
		for i := 0; i < b.NumItems(); i++ {
			add([]int32{int32(i)}, b.Columns[i])
		}
	}
	for _, p := range mined {
		add(p.Items, p.Cover())
	}
	return stats, b, nil
}

// BoundPoint is one point of a theoretical bound curve.
type BoundPoint struct {
	Support int
	Theta   float64
	Bound   float64
}

// IGBoundCurve returns the paper's Figure 2 overlay: the information
// gain upper bound IGub(θ) at every absolute support 1..n−1, for a
// two-class problem with prior p (binary datasets) or the multi-class
// bound given the full prior vector.
func IGBoundCurve(classCounts []int) []BoundPoint {
	n := 0
	for _, c := range classCounts {
		n += c
	}
	if n == 0 {
		return nil
	}
	priors := make([]float64, len(classCounts))
	for i, c := range classCounts {
		priors[i] = float64(c) / float64(n)
	}
	out := make([]BoundPoint, 0, n-1)
	for s := 1; s < n; s++ {
		theta := float64(s) / float64(n)
		var b float64
		if len(classCounts) == 2 {
			p := priors[1]
			if p > 0.5 {
				p = 1 - p
			}
			b = measures.IGUpperBound(theta, p)
		} else {
			b = measures.IGUpperBoundMulti(theta, priors)
		}
		out = append(out, BoundPoint{Support: s, Theta: theta, Bound: b})
	}
	return out
}

// FisherBoundCurve returns the Figure 3 overlay Frub(θ) for a two-class
// problem. For multi-class inputs it uses the minority-vs-rest prior,
// which upper-bounds the pairwise-separability score the figure plots.
func FisherBoundCurve(classCounts []int) []BoundPoint {
	n := 0
	for _, c := range classCounts {
		n += c
	}
	if n == 0 {
		return nil
	}
	// Minority prior.
	minC := classCounts[0]
	for _, c := range classCounts {
		if c < minC {
			minC = c
		}
	}
	p := float64(minC) / float64(n)
	out := make([]BoundPoint, 0, n-1)
	for s := 1; s < n; s++ {
		theta := float64(s) / float64(n)
		out = append(out, BoundPoint{Support: s, Theta: theta, Bound: measures.FisherUpperBound(theta, p)})
	}
	return out
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"dfpc/internal/c45"
	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/guard"
)

// c45Train trains the paper's default C4.5 tree; g (nil = unbounded)
// bounds tree growth.
func c45Train(x [][]int32, y []int, numClasses int, g *guard.Guard) (*c45.Model, error) {
	return c45.Train(x, y, numClasses, c45.Config{Guard: g})
}

// Figure1Row summarizes information gain at one pattern length on one
// dataset (the paper's Figure 1 scatter, reduced to per-length
// statistics).
type Figure1Row struct {
	Dataset string
	Length  int
	Count   int
	MaxIG   float64
	MeanIG  float64
}

// RunFigure1 reproduces Figure 1: information gain vs. pattern length
// on the given datasets (the paper uses Austral, Breast, Sonar). The
// headline observation to verify: some frequent patterns have higher
// information gain than any single feature.
func RunFigure1(names []string, minSupport float64) ([]Figure1Row, error) {
	var rows []Figure1Row
	for _, name := range names {
		d, err := datagen.ByName(name, Seed)
		if err != nil {
			return rows, err
		}
		stats, _, err := core.AnalyzePatterns(d, core.AnalyzeOptions{
			MinSupport:     minSupport,
			IncludeSingles: true,
		})
		if err != nil {
			return rows, fmt.Errorf("figure1 %s: %w", name, err)
		}
		byLen := map[int][]float64{}
		for _, s := range stats {
			byLen[s.Length] = append(byLen[s.Length], s.InfoGain)
		}
		lengths := make([]int, 0, len(byLen))
		for l := range byLen {
			lengths = append(lengths, l)
		}
		sort.Ints(lengths)
		for _, l := range lengths {
			igs := byLen[l]
			maxIG, sum := 0.0, 0.0
			for _, g := range igs {
				sum += g
				if g > maxIG {
					maxIG = g
				}
			}
			rows = append(rows, Figure1Row{
				Dataset: name, Length: l, Count: len(igs),
				MaxIG: maxIG, MeanIG: sum / float64(len(igs)),
			})
		}
	}
	return rows, nil
}

// WriteFigure1 renders the per-length series.
func WriteFigure1(w io.Writer, rows []Figure1Row) {
	fmt.Fprintf(w, "Figure 1. Information Gain vs Pattern Length\n")
	fmt.Fprintf(w, "%-10s %7s %7s %8s %8s\n", "Data", "Length", "Count", "MaxIG", "MeanIG")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %7d %8.4f %8.4f\n", r.Dataset, r.Length, r.Count, r.MaxIG, r.MeanIG)
	}
}

// FigureBoundRow is one support bucket of Figures 2–3: the best
// empirical measure among features in the bucket versus the theoretical
// upper bound at the bucket's support.
type FigureBoundRow struct {
	Dataset  string
	Support  int
	Count    int
	MaxValue float64 // max empirical IG (Fig 2) or Fisher (Fig 3)
	Bound    float64 // IGub / Frub at this support
}

// RunFigure2 reproduces Figure 2: empirical information gain vs.
// support, with the theoretical upper bound IGub overlay. Supports are
// bucketed for a readable table; the invariant MaxValue <= Bound must
// hold everywhere.
func RunFigure2(names []string, minSupport float64, buckets int) ([]FigureBoundRow, error) {
	return runBoundFigure(names, minSupport, buckets, false)
}

// RunFigure3 is Figure 2's Fisher-score counterpart.
func RunFigure3(names []string, minSupport float64, buckets int) ([]FigureBoundRow, error) {
	return runBoundFigure(names, minSupport, buckets, true)
}

func runBoundFigure(names []string, minSupport float64, buckets int, fisher bool) ([]FigureBoundRow, error) {
	if buckets <= 0 {
		buckets = 20
	}
	var rows []FigureBoundRow
	for _, name := range names {
		d, err := datagen.ByName(name, Seed)
		if err != nil {
			return rows, err
		}
		stats, b, err := core.AnalyzePatterns(d, core.AnalyzeOptions{
			MinSupport:     minSupport,
			IncludeSingles: true,
		})
		if err != nil {
			return rows, fmt.Errorf("figure %s: %w", name, err)
		}
		var curve []core.BoundPoint
		if fisher {
			curve = core.FisherBoundCurve(b.ClassCounts())
		} else {
			curve = core.IGBoundCurve(b.ClassCounts())
		}
		n := b.NumRows()
		width := (n + buckets - 1) / buckets
		type agg struct {
			count int
			max   float64
		}
		perBucket := make([]agg, buckets)
		for _, s := range stats {
			if s.Support < 1 || s.Support >= n {
				continue
			}
			bi := (s.Support - 1) / width
			if bi >= buckets {
				bi = buckets - 1
			}
			v := s.InfoGain
			if fisher {
				v = s.Fisher
			}
			perBucket[bi].count++
			if v > perBucket[bi].max {
				perBucket[bi].max = v
			}
		}
		for bi, a := range perBucket {
			if a.count == 0 {
				continue
			}
			// Representative support: the bucket's upper edge (the bound
			// there dominates every support in the bucket for the rising
			// region; we report the max bound within the bucket to keep
			// the dominance invariant exact).
			lo := bi*width + 1
			hi := (bi + 1) * width
			if hi > n-1 {
				hi = n - 1
			}
			bound := 0.0
			for s := lo; s <= hi; s++ {
				if bv := curve[s-1].Bound; bv > bound || math.IsInf(bv, 1) {
					bound = bv
					if math.IsInf(bv, 1) {
						break
					}
				}
			}
			rows = append(rows, FigureBoundRow{
				Dataset: name, Support: hi, Count: a.count,
				MaxValue: a.max, Bound: bound,
			})
		}
	}
	return rows, nil
}

// WriteBoundFigure renders Figure 2 or 3.
func WriteBoundFigure(w io.Writer, title, measure string, rows []FigureBoundRow) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %9s %7s %10s %12s\n", "Data", "Support", "Count", "Max"+measure, measure+"_ub")
	for _, r := range rows {
		bound := fmt.Sprintf("%12.4f", r.Bound)
		if math.IsInf(r.Bound, 1) {
			bound = fmt.Sprintf("%12s", "+Inf")
		}
		fmt.Fprintf(w, "%-10s %9d %7d %10.4f %s\n", r.Dataset, r.Support, r.Count, r.MaxValue, bound)
	}
}

// MinSupSweepRow is one point of the Section 3.2 min_sup-effect curve.
type MinSupSweepRow struct {
	Dataset    string
	MinSupport float64
	Patterns   int
	Accuracy   float64 // percent
}

// RunMinSupSweep traces classification accuracy and pattern count as
// min_sup decreases — the Section 3.2 analysis (accuracy rises as
// medium-frequency discriminative patterns appear, then flattens or
// drops from overfitting while cost explodes).
func RunMinSupSweep(ctx context.Context, name string, minSups []float64, proto Protocol) ([]MinSupSweepRow, error) {
	d, err := datagen.ByName(name, Seed)
	if err != nil {
		return nil, err
	}
	if proto.Folds <= 0 {
		proto.Folds = 5
	}
	var rows []MinSupSweepRow
	for _, ms := range minSups {
		p := core.NewFamily(core.PatFS, core.Config{MinSupport: ms, Workers: proto.Workers})
		acc, err := cvProto(ctx, p, d, proto)
		if err != nil {
			return rows, fmt.Errorf("minsup sweep %s@%v: %w", name, ms, err)
		}
		rows = append(rows, MinSupSweepRow{
			Dataset:    name,
			MinSupport: ms,
			Patterns:   p.Stats.MinedCount,
			Accuracy:   acc,
		})
	}
	return rows, nil
}

// WriteMinSupSweep renders the sweep.
func WriteMinSupSweep(w io.Writer, rows []MinSupSweepRow) {
	fmt.Fprintf(w, "Minimum-support effect (Section 3.2): Pat_FS accuracy vs min_sup\n")
	fmt.Fprintf(w, "%-10s %9s %10s %10s\n", "Data", "min_sup", "#Patterns", "Acc(%)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9.3f %10d %10.2f\n", r.Dataset, r.MinSupport, r.Patterns, r.Accuracy)
	}
}

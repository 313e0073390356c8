package rules

import (
	"fmt"

	"dfpc/internal/dataset"
)

// CMAR (Li, Han & Pei, ICDM'01 — the paper's reference [13], and the
// origin of the database-coverage parameter δ that MMRFS borrows)
// classifies with *multiple* matching rules: the matching rules are
// grouped by consequent class and each group is scored with a weighted
// chi-squared measure, so one over-confident rule cannot dominate.

// CMAROptions configures TrainCMAR.
type CMAROptions struct {
	// MinSupport is the relative per-class mining support (default 0.05).
	MinSupport float64
	// MinConfidence filters rules (default 0.5).
	MinConfidence float64
	// Coverage is the database-coverage pruning threshold δ: each
	// training instance may be covered by up to δ kept rules before it
	// stops counting (default 4, CMAR's published setting).
	Coverage int
	// MaxLen caps antecedent length (0 = unlimited).
	MaxLen int
	// MaxPatterns caps the mined pool (0 = unlimited).
	MaxPatterns int
}

func (o CMAROptions) withDefaults() CMAROptions {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.05
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.5
	}
	if o.Coverage <= 0 {
		o.Coverage = 4
	}
	return o
}

// cmarRule extends Rule with the precomputed chi-squared statistics the
// weighted-χ² score needs.
type cmarRule struct {
	Rule
	chi2    float64 // observed χ² of the rule's 2×2 contingency
	maxChi2 float64 // χ² of a perfectly correlated rule with same margins
}

// CMARModel is a set of rules scored per class at prediction time.
type CMARModel struct {
	Rules        []cmarRule
	DefaultClass int
	numClasses   int
}

// chi2Of computes the chi-squared statistic of the 2×2 contingency
// table with margins (antSup, clsSup, n) and joint cell `both`.
func chi2Of(antSup, clsSup float64, both, n float64) float64 {
	obs := [2][2]float64{
		{both, antSup - both},
		{clsSup - both, n - antSup - clsSup + both},
	}
	rowSum := [2]float64{antSup, n - antSup}
	colSum := [2]float64{clsSup, n - clsSup}
	chi2 := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			e := rowSum[i] * colSum[j] / n
			if e > 0 {
				d := obs[i][j] - e
				chi2 += d * d / e
			}
		}
	}
	return chi2
}

// chi2Stats computes the rule's chi-squared value and its theoretical
// maximum given the margins (antecedent support, class support, N) —
// the normalization CMAR's weighted χ² uses. The maximum is the χ² of
// the most associated table with the same margins, i.e. the joint cell
// pushed to min(antSup, clsSup).
func chi2Stats(antSup, clsSup, both, n int) (chi2, maxChi2 float64) {
	if antSup == 0 || clsSup == 0 || antSup == n || clsSup == n {
		return 0, 1
	}
	fa, fc, fb, fn := float64(antSup), float64(clsSup), float64(both), float64(n)
	chi2 = chi2Of(fa, fc, fb, fn)
	minAC := fa
	if fc < minAC {
		minAC = fc
	}
	maxChi2 = chi2Of(fa, fc, minAC, fn)
	if maxChi2 <= 0 {
		maxChi2 = 1
	}
	return chi2, maxChi2
}

// TrainCMAR builds a CMAR-style classifier on the binary training data.
func TrainCMAR(b *dataset.Binary, opt CMAROptions) (*CMARModel, error) {
	if b.NumRows() == 0 {
		return nil, fmt.Errorf("rules: empty training set")
	}
	opt = opt.withDefaults()
	base, err := generateRules(b, opt.MinSupport, opt.MinConfidence, opt.MaxLen, opt.MaxPatterns)
	if err != nil {
		return nil, err
	}
	sortRules(base)

	n := b.NumRows()
	// Database coverage pruning with δ (an instance drops out after
	// being covered δ times).
	covered := make([]int, n)
	remaining := n
	var kept []cmarRule
	for _, r := range base {
		if remaining == 0 {
			break
		}
		used := false
		for i := 0; i < n && !used; i++ {
			if covered[i] < opt.Coverage && b.Labels[i] == r.Class && r.matches(b.Rows[i]) {
				used = true
			}
		}
		if !used {
			continue
		}
		clsSup := b.ClassMasks[r.Class].Count()
		chi2, maxChi2 := chi2Stats(r.antSupport, clsSup, r.Support, n)
		kept = append(kept, cmarRule{Rule: r, chi2: chi2, maxChi2: maxChi2})
		for i := 0; i < n; i++ {
			if covered[i] < opt.Coverage && r.matches(b.Rows[i]) {
				covered[i]++
				if covered[i] == opt.Coverage {
					remaining--
				}
			}
		}
	}

	counts := make([]int, b.NumClasses())
	for _, y := range b.Labels {
		counts[y]++
	}
	def := 0
	for c := range counts {
		if counts[c] > counts[def] {
			def = c
		}
	}
	return &CMARModel{Rules: kept, DefaultClass: def, numClasses: b.NumClasses()}, nil
}

// Predict scores each class by the weighted χ² of its matching rules,
// Σ χ²·χ²/maxχ², and returns the argmax (default class when nothing
// matches) — CMAR's multiple-rule decision.
func (m *CMARModel) Predict(tx []int32) int {
	scores := make([]float64, m.numClasses)
	matched := false
	for i := range m.Rules {
		r := &m.Rules[i]
		if r.matches(tx) {
			scores[r.Class] += r.chi2 * r.chi2 / r.maxChi2
			matched = true
		}
	}
	if !matched {
		return m.DefaultClass
	}
	best := 0
	for c := 1; c < m.numClasses; c++ {
		if scores[c] > scores[best] {
			best = c
		}
	}
	return best
}

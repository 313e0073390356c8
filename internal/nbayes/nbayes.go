// Package nbayes implements a Bernoulli naive Bayes classifier over
// sparse binary feature rows. The paper's framework is learner-
// agnostic ("any learning algorithm can be used" — Section 5); naive
// Bayes is the simplest probabilistic instance and doubles as a fast
// baseline in the learner ablation.
package nbayes

import (
	"fmt"
	"math"
)

// Config configures training.
type Config struct {
	// Alpha is the Laplace smoothing pseudo-count (default 1).
	Alpha float64
}

// Model is a trained Bernoulli naive Bayes classifier.
type Model struct {
	numClasses  int
	numFeatures int
	logPrior    []float64
	// logP[c][f] is log P(f=1 | c); logQ[c][f] is log P(f=0 | c).
	logP [][]float64
	logQ [][]float64
	// baseline[c] = logPrior[c] + Σ_f logQ[c][f]: the all-absent score,
	// precomputed so prediction is O(|x|) per class.
	baseline []float64
}

// Train fits the model on sparse binary rows x (sorted feature IDs in
// [0, numFeatures)) with labels y in [0, numClasses).
func Train(x [][]int32, y []int, numClasses, numFeatures int, cfg Config) (*Model, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("nbayes: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("nbayes: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 1 || numFeatures < 1 {
		return nil, fmt.Errorf("nbayes: numClasses = %d, numFeatures = %d", numClasses, numFeatures)
	}
	alpha := cfg.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	classCount := make([]float64, numClasses)
	featCount := make([][]float64, numClasses)
	for c := range featCount {
		featCount[c] = make([]float64, numFeatures)
	}
	for i, row := range x {
		if y[i] < 0 || y[i] >= numClasses {
			return nil, fmt.Errorf("nbayes: label %d out of range [0,%d)", y[i], numClasses)
		}
		classCount[y[i]]++
		for _, f := range row {
			if f < 0 || int(f) >= numFeatures {
				return nil, fmt.Errorf("nbayes: feature %d out of range [0,%d)", f, numFeatures)
			}
			featCount[y[i]][f]++
		}
	}
	n := float64(len(x))
	m := &Model{
		numClasses:  numClasses,
		numFeatures: numFeatures,
		logPrior:    make([]float64, numClasses),
		logP:        make([][]float64, numClasses),
		logQ:        make([][]float64, numClasses),
	}
	m.baseline = make([]float64, numClasses)
	for c := 0; c < numClasses; c++ {
		m.logPrior[c] = math.Log((classCount[c] + alpha) / (n + alpha*float64(numClasses)))
		m.logP[c] = make([]float64, numFeatures)
		m.logQ[c] = make([]float64, numFeatures)
		m.baseline[c] = m.logPrior[c]
		for f := 0; f < numFeatures; f++ {
			p := (featCount[c][f] + alpha) / (classCount[c] + 2*alpha)
			m.logP[c][f] = math.Log(p)
			m.logQ[c][f] = math.Log(1 - p)
			m.baseline[c] += m.logQ[c][f]
		}
	}
	return m, nil
}

// Predict returns the MAP class for a sparse binary row. Features
// outside the trained range are ignored.
func (m *Model) Predict(x []int32) int {
	best, bestScore := 0, math.Inf(-1)
	for c := 0; c < m.numClasses; c++ {
		// Start from the all-absent baseline, then swap in present
		// features: score = baseline + Σ_{f∈x} (logP − logQ).
		score := m.baseline[c]
		for _, f := range x {
			if int(f) < m.numFeatures {
				score += m.logP[c][f] - m.logQ[c][f]
			}
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

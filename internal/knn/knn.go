// Package knn implements a k-nearest-neighbour classifier over sparse
// binary feature rows with Jaccard or Hamming distance. Like naive
// Bayes, it exists to demonstrate the framework's learner-agnosticism:
// the pattern features change the geometry of the instance space, so
// even a memory-based learner benefits from them.
package knn

import (
	"fmt"
	"slices"
)

// Distance selects the dissimilarity measure between binary rows.
type Distance int

const (
	// Jaccard is 1 − |a∩b| / |a∪b| (1 for two empty rows' complement
	// convention: two empty rows have distance 0).
	Jaccard Distance = iota
	// Hamming is the size of the symmetric difference.
	Hamming
)

func (d Distance) String() string {
	switch d {
	case Jaccard:
		return "jaccard"
	case Hamming:
		return "hamming"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// Config configures the classifier.
type Config struct {
	// K is the neighbour count (default 5).
	K int
	// Distance is the dissimilarity (default Jaccard).
	Distance Distance
}

// Model holds the training data (k-NN is lazy).
type Model struct {
	x          [][]int32
	y          []int
	numClasses int
	cfg        Config
}

// Train validates and stores the training data.
func Train(x [][]int32, y []int, numClasses int, cfg Config) (*Model, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("knn: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("knn: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("knn: numClasses = %d", numClasses)
	}
	for _, yi := range y {
		if yi < 0 || yi >= numClasses {
			return nil, fmt.Errorf("knn: label %d out of range [0,%d)", yi, numClasses)
		}
	}
	if cfg.K <= 0 {
		cfg.K = 5
	}
	return &Model{x: x, y: y, numClasses: numClasses, cfg: cfg}, nil
}

// intersection counts common items of two sorted rows.
func intersection(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// distance computes the configured dissimilarity.
func (m *Model) distance(a, b []int32) float64 {
	inter := intersection(a, b)
	switch m.cfg.Distance {
	case Hamming:
		return float64(len(a) + len(b) - 2*inter)
	default:
		union := len(a) + len(b) - inter
		if union == 0 {
			return 0
		}
		return 1 - float64(inter)/float64(union)
	}
}

// Predict returns the majority class among the K nearest training rows
// (ties broken toward the smaller class index; distance ties keep the
// earlier training row, making prediction deterministic).
func (m *Model) Predict(x []int32) int { return m.NewScorer().Predict(x) }

// neighbour is one training row's distance to the query row.
type neighbour struct {
	d   float64
	row int
}

// Scorer predicts through preallocated neighbour and vote scratch, so
// repeated prediction costs zero allocations per row. A Scorer is
// single-goroutine; concurrent scorers share the Model and carry one
// Scorer each. Predictions are identical to the Model's own Predict.
type Scorer struct {
	m     *Model
	dists []neighbour
	votes []int
}

// NewScorer returns a scorer with scratch sized for this model.
func (m *Model) NewScorer() *Scorer {
	return &Scorer{
		m:     m,
		dists: make([]neighbour, len(m.x)),
		votes: make([]int, m.numClasses),
	}
}

// Predict returns the predicted class for a sparse binary row.
func (s *Scorer) Predict(x []int32) int {
	m, dists, votes := s.m, s.dists, s.votes
	for i, tr := range m.x {
		dists[i] = neighbour{m.distance(tr, x), i}
	}
	// slices.SortFunc with a capture-free comparator: sort.Slice would
	// box dists into an interface and heap-allocate the closure on
	// every Predict call.
	slices.SortFunc(dists, func(a, b neighbour) int {
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		return a.row - b.row
	})
	k := min(m.cfg.K, len(dists))
	clear(votes)
	for _, n := range dists[:k] {
		votes[m.y[n.row]]++
	}
	best := 0
	for c := 1; c < m.numClasses; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

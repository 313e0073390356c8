// Package c45 implements a C4.5-style decision-tree learner (Quinlan,
// 1993) over sparse binary feature rows — the stand-in for Weka's J48 in
// the paper's Table 2 experiments. Splits maximize gain ratio over
// binary feature tests; trees are simplified by C4.5's error-based
// (pessimistic) pruning with the standard confidence factor.
package c45

import (
	"fmt"
	"log/slog"
	"math"
	"sort"

	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// Config configures tree induction.
type Config struct {
	// MinLeaf is the minimum number of instances in a leaf (default 2,
	// J48's default).
	MinLeaf int
	// Confidence is the pruning confidence factor CF (default 0.25,
	// J48's default); a negative value disables pruning.
	Confidence float64
	// Guard, when non-nil, bounds tree growth; Train aborts with an
	// error satisfying errors.Is(err, guard.ErrCanceled) (or
	// guard.ErrDeadline). The caller builds it; nil costs nothing.
	Guard *guard.Guard
	// Obs, when non-nil, records node-count and depth metrics per Train
	// call. Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per Train
	// call (tree size and depth). Nil disables logging.
	Log *slog.Logger
	// Faults, when non-nil, enables deterministic fault injection at
	// the start of tree induction (point c45.build). Nil is free.
	Faults *faults.Registry
}

func (c Config) withDefaults() Config {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.Confidence == 0 {
		c.Confidence = 0.25
	}
	return c
}

// node is one tree node. A leaf has feature = -1.
type node struct {
	feature      int32 // split feature; -1 for leaves
	absent       *node // branch where the feature is absent (0)
	present      *node // branch where the feature is present (1)
	class        int   // majority class at this node
	counts       []int // class histogram of the training rows here
	n            int   // total training rows here
	errorsAsLeaf int   // misclassifications if this node were a leaf
}

// Model is a trained decision tree.
type Model struct {
	root       *node
	numClasses int
}

// Train grows and prunes a tree on sparse binary rows x (sorted feature
// IDs) with class labels y in [0, numClasses).
func Train(x [][]int32, y []int, numClasses int, cfg Config) (*Model, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("c45: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("c45: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("c45: numClasses = %d", numClasses)
	}
	for _, yi := range y {
		if yi < 0 || yi >= numClasses {
			return nil, fmt.Errorf("c45: label %d out of range [0,%d)", yi, numClasses)
		}
	}
	cfg = cfg.withDefaults()
	b := &builder{x: x, y: y, numClasses: numClasses, cfg: cfg}
	if err := cfg.Guard.CheckNow(); err != nil {
		return nil, err
	}
	if err := cfg.Faults.Hit(faults.C45Build); err != nil {
		return nil, fmt.Errorf("c45: %w", err)
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	root := b.grow(rows)
	if b.err != nil {
		return nil, b.err
	}
	if cfg.Confidence > 0 {
		prune(root, cfg.Confidence)
	}
	m := &Model{root: root, numClasses: numClasses}
	if cfg.Obs != nil {
		cfg.Obs.Counter("c45.nodes").Add(int64(m.Size()))
		cfg.Obs.Gauge("c45.depth").Set(float64(m.Depth()))
	}
	if cfg.Log != nil {
		cfg.Log.Debug("C4.5 tree trained",
			slog.Int("nodes", m.Size()),
			slog.Int("depth", m.Depth()))
	}
	return m, nil
}

type builder struct {
	x          [][]int32
	y          []int
	numClasses int
	cfg        Config
	// err records the first guard failure; once set, grow collapses to
	// leaves immediately and Train returns the error instead of a model.
	err error
}

// histogram returns class counts, majority class, and leaf errors for a
// row subset.
func (b *builder) histogram(rows []int) (counts []int, major, errs int) {
	counts = make([]int, b.numClasses)
	for _, r := range rows {
		counts[b.y[r]]++
	}
	for c, n := range counts {
		if n > counts[major] {
			major = c
		}
		_ = n
	}
	return counts, major, len(rows) - counts[major]
}

func entropyOf(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := float64(c) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h
}

// bestSplit scans the features present in the subset and returns the
// feature with the best gain ratio (C4.5's criterion: maximal gain
// ratio among splits whose information gain is at least the average of
// all positive-gain candidates). ok is false when no useful split
// exists.
func (b *builder) bestSplit(rows []int, counts []int) (feature int32, ok bool) {
	n := len(rows)
	base := entropyOf(counts, n)
	if base == 0 {
		return 0, false
	}

	// presentCount[f][c] for features f that actually occur in rows.
	type stat struct {
		perClass []int
		total    int
	}
	stats := map[int32]*stat{}
	for _, r := range rows {
		for _, f := range b.x[r] {
			s := stats[f]
			if s == nil {
				s = &stat{perClass: make([]int, b.numClasses)}
				stats[f] = s
			}
			s.perClass[b.y[r]]++
			s.total++
		}
	}

	type candidate struct {
		feature   int32
		gain      float64
		gainRatio float64
	}
	var cands []candidate
	absent := make([]int, b.numClasses)
	for f, s := range stats {
		nP := s.total
		nA := n - nP
		if nP < b.cfg.MinLeaf || nA < b.cfg.MinLeaf {
			continue
		}
		for c := range absent {
			absent[c] = counts[c] - s.perClass[c]
		}
		cond := (float64(nP)*entropyOf(s.perClass, nP) + float64(nA)*entropyOf(absent, nA)) / float64(n)
		gain := base - cond
		if gain <= 1e-12 {
			continue
		}
		pP := float64(nP) / float64(n)
		splitInfo := -pP*math.Log2(pP) - (1-pP)*math.Log2(1-pP)
		if splitInfo <= 1e-12 {
			continue
		}
		cands = append(cands, candidate{feature: f, gain: gain, gainRatio: gain / splitInfo})
	}
	if len(cands) == 0 {
		return 0, false
	}
	avgGain := 0.0
	for _, c := range cands {
		avgGain += c.gain
	}
	avgGain /= float64(len(cands))

	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gainRatio != cands[j].gainRatio {
			return cands[i].gainRatio > cands[j].gainRatio
		}
		return cands[i].feature < cands[j].feature
	})
	for _, c := range cands {
		if c.gain >= avgGain-1e-12 {
			return c.feature, true
		}
	}
	return cands[0].feature, true
}

func (b *builder) grow(rows []int) *node {
	counts, major, errs := b.histogram(rows)
	nd := &node{feature: -1, class: major, counts: counts, n: len(rows), errorsAsLeaf: errs}
	// Cooperative cancellation at every recursion entry; collapsing to a
	// leaf keeps grow's signature while Train surfaces b.err.
	if b.err != nil {
		return nd
	}
	if err := b.cfg.Guard.Check(); err != nil {
		b.err = err
		return nd
	}
	if errs == 0 || len(rows) < 2*b.cfg.MinLeaf {
		return nd
	}
	f, ok := b.bestSplit(rows, counts)
	if !ok {
		return nd
	}
	var presentRows, absentRows []int
	for _, r := range rows {
		if hasFeature(b.x[r], f) {
			presentRows = append(presentRows, r)
		} else {
			absentRows = append(absentRows, r)
		}
	}
	nd.feature = f
	nd.present = b.grow(presentRows)
	nd.absent = b.grow(absentRows)
	return nd
}

func hasFeature(row []int32, f int32) bool {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == f
}

// zValue is the standard-normal deviate for the upper tail probability
// CF, via the rational approximation of Abramowitz & Stegun 26.2.23
// (the same approach C4.5 uses).
func zValue(cf float64) float64 {
	if cf >= 0.5 {
		return 0
	}
	t := math.Sqrt(-2 * math.Log(cf))
	return t - (2.515517+0.802853*t+0.010328*t*t)/
		(1+1.432788*t+0.189269*t*t+0.001308*t*t*t)
}

// pessimisticErrors returns C4.5's upper-confidence-bound estimate of
// the errors among n instances given e observed errors.
func pessimisticErrors(e, n int, cf float64) float64 {
	if n == 0 {
		return 0
	}
	z := zValue(cf)
	f := float64(e) / float64(n)
	nn := float64(n)
	ub := (f + z*z/(2*nn) + z*math.Sqrt(f*(1-f)/nn+z*z/(4*nn*nn))) / (1 + z*z/nn)
	return ub * nn
}

// prune applies subtree replacement bottom-up: a subtree is replaced by
// a leaf when the leaf's pessimistic error estimate does not exceed the
// subtree's.
//
//vet:ignore guardloop recursion bounded by the already-built tree, whose growth was guarded
func prune(nd *node, cf float64) float64 {
	if nd.feature < 0 {
		return pessimisticErrors(nd.errorsAsLeaf, nd.n, cf)
	}
	subtreeErr := prune(nd.present, cf) + prune(nd.absent, cf)
	leafErr := pessimisticErrors(nd.errorsAsLeaf, nd.n, cf)
	if leafErr <= subtreeErr+1e-9 {
		nd.feature = -1
		nd.present = nil
		nd.absent = nil
		return leafErr
	}
	return subtreeErr
}

// PredictConf returns the predicted class for one sparse binary row
// together with the leaf's purity — the fraction of training rows at
// the deciding leaf that carry the predicted class. Empty leaves
// (possible only on degenerate trees) report confidence 0.
func (m *Model) PredictConf(x []int32) (int, float64) {
	nd := m.root
	for nd.feature >= 0 {
		if hasFeature(x, nd.feature) {
			nd = nd.present
		} else {
			nd = nd.absent
		}
	}
	if nd.n == 0 || nd.class >= len(nd.counts) {
		return nd.class, 0
	}
	return nd.class, float64(nd.counts[nd.class]) / float64(nd.n)
}

// Predict returns PredictConf's class.
func (m *Model) Predict(x []int32) int {
	cls, _ := m.PredictConf(x)
	return cls
}

// Size returns the number of nodes in the tree.
func (m *Model) Size() int { return size(m.root) }

//vet:ignore guardloop recursion bounded by the already-built tree, whose growth was guarded
func size(nd *node) int {
	if nd == nil {
		return 0
	}
	return 1 + size(nd.present) + size(nd.absent)
}

// Depth returns the depth of the tree (a single leaf has depth 1).
func (m *Model) Depth() int { return depth(m.root) }

//vet:ignore guardloop recursion bounded by the already-built tree, whose growth was guarded
func depth(nd *node) int {
	if nd == nil {
		return 0
	}
	d := depth(nd.present)
	if a := depth(nd.absent); a > d {
		d = a
	}
	return 1 + d
}

package svm

import (
	"fmt"
	"log/slog"

	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// Config configures training.
type Config struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// Kernel selects the kernel (zero value = linear).
	Kernel Kernel
	// Eps is the KKT violation tolerance for SMO convergence
	// (default 1e-3, LIBSVM's default).
	Eps float64
	// MaxIter caps SMO iterations per binary problem (default
	// 100·n, at least 10000).
	MaxIter int
	// NumFeatures is the dimensionality of the feature space, used to
	// resolve the default γ = 1/numFeatures. Required for RBF with
	// Gamma <= 0.
	NumFeatures int
	// Guard, when non-nil, bounds SMO iterations; training aborts with
	// an error satisfying errors.Is(err, guard.ErrCanceled) (or
	// guard.ErrDeadline). Every one-vs-one subproblem polls its own
	// Fork. The caller builds it; nil costs nothing.
	Guard *guard.Guard
	// Obs, when non-nil, records SMO iteration and support-vector
	// counters per Train call. Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per Train
	// call plus a WARN when any SMO subproblem exhausts MaxIter before
	// converging. Nil disables logging.
	Log *slog.Logger
	// Workers bounds the one-vs-one subproblem fan-out (0 = GOMAXPROCS,
	// 1 = sequential). Each binary subproblem is an independent SMO
	// solve over a fixed pair of class partitions, so the fitted model
	// is identical at any worker count; subproblems are assembled into
	// the model in pair order.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection at
	// the start of every one-vs-one SMO subproblem solve (point
	// svm.smo), which runs inside the parallel worker pool — an armed
	// panic there exercises the pool's PanicError capture. Nil is free.
	Faults *faults.Registry
}

func (c Config) withDefaults(n int) Config {
	if c.C <= 0 {
		c.C = 1
	}
	if c.Eps <= 0 {
		c.Eps = 1e-3
	}
	if c.MaxIter <= 0 {
		c.MaxIter = 100 * n
		if c.MaxIter < 10000 {
			c.MaxIter = 10000
		}
	}
	return c
}

// Model is a trained (possibly multi-class) SVM. Multi-class problems
// are decomposed one-vs-one as in LIBSVM; prediction is by voting.
type Model struct {
	numClasses int
	// pairs[k] is the binary model for the k-th class pair; pairClass
	// holds the (a, b) class indices with a < b; its decision > 0 votes
	// for a, otherwise b.
	pairs     []*binaryModel
	pairClass [][2]int
	// singleClass >= 0 marks a degenerate training set with only one
	// class: Predict always returns it.
	singleClass int
}

// Train fits an SVM on sparse binary rows x with class labels y in
// [0, numClasses).
func Train(x [][]int32, y []int, numClasses int, cfg Config) (*Model, error) {
	if len(x) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(x) != len(y) {
		return nil, fmt.Errorf("svm: %d rows, %d labels", len(x), len(y))
	}
	if numClasses < 1 {
		return nil, fmt.Errorf("svm: numClasses = %d", numClasses)
	}
	if !cfg.Kernel.Type.valid() {
		return nil, fmt.Errorf("svm: unknown kernel type %d", int(cfg.Kernel.Type))
	}
	cfg = cfg.withDefaults(len(x))
	if err := cfg.Guard.CheckNow(); err != nil {
		return nil, err
	}
	gamma := cfg.Kernel.resolveGamma(cfg.NumFeatures)

	byClass := make([][]int, numClasses)
	for i, yi := range y {
		if yi < 0 || yi >= numClasses {
			return nil, fmt.Errorf("svm: label %d out of range [0,%d)", yi, numClasses)
		}
		byClass[yi] = append(byClass[yi], i)
	}
	present := make([]int, 0, numClasses)
	for c, rows := range byClass {
		if len(rows) > 0 {
			present = append(present, c)
		}
	}
	m := &Model{numClasses: numClasses, singleClass: -1}
	if len(present) == 1 {
		m.singleClass = present[0]
		return m, nil
	}

	// Enumerate the pairs up front in the canonical (a < b) order, then
	// solve each independent subproblem — concurrently when Workers
	// allows — into index-ordered slots. The assembly below walks the
	// slots in order, so the model is identical at any worker count;
	// ForEach surfaces the lowest-index error, which is exactly the
	// error a sequential loop would have stopped on.
	var pairList [][2]int
	for ai := 0; ai < len(present); ai++ {
		for bi := ai + 1; bi < len(present); bi++ {
			pairList = append(pairList, [2]int{present[ai], present[bi]})
		}
	}
	solved := make([]*binaryModel, len(pairList))
	err := parallel.ForEach(cfg.Workers, len(pairList), func(k int) error {
		a, b := pairList[k][0], pairList[k][1]
		if err := cfg.Faults.Hit(faults.SVMSolve); err != nil {
			return fmt.Errorf("svm: pair (%d,%d): %w", a, b, err)
		}
		rowsA, rowsB := byClass[a], byClass[b]
		px := make([][]int32, 0, len(rowsA)+len(rowsB))
		py := make([]float64, 0, len(rowsA)+len(rowsB))
		for _, r := range rowsA {
			px = append(px, x[r])
			py = append(py, 1)
		}
		for _, r := range rowsB {
			px = append(px, x[r])
			py = append(py, -1)
		}
		// Guards are single-goroutine state: every subproblem checks
		// its own fork of the stage guard.
		bm, err := trainBinary(px, py, smoConfig{
			c:       cfg.C,
			eps:     cfg.Eps,
			maxIter: cfg.MaxIter,
			kernel:  cfg.Kernel,
			gamma:   gamma,
			g:       cfg.Guard.Fork(),
		})
		if err != nil {
			return fmt.Errorf("svm: pair (%d,%d): %w", a, b, err)
		}
		solved[k] = bm
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.pairs = solved
	m.pairClass = pairList
	if cfg.Obs != nil {
		cfg.Obs.Counter("svm.smo_iterations").Add(int64(m.Iterations()))
		cfg.Obs.Counter("svm.support_vectors").Add(int64(m.SupportVectors()))
		cfg.Obs.Counter("svm.binary_problems").Add(int64(len(m.pairs)))
		if n := m.NonConverged(); n > 0 {
			cfg.Obs.Counter("svm.nonconverged").Add(int64(n))
		}
	}
	if cfg.Log != nil {
		cfg.Log.Debug("SVM trained",
			slog.Int("binary_problems", len(m.pairs)),
			slog.Int("support_vectors", m.SupportVectors()),
			slog.Int("smo_iterations", m.Iterations()))
		if n := m.NonConverged(); n > 0 {
			cfg.Log.Warn("SMO did not converge on every subproblem",
				slog.Int("nonconverged", n),
				slog.Int("binary_problems", len(m.pairs)),
				slog.Int("max_iter", cfg.MaxIter))
		}
	}
	return m, nil
}

// BinaryProblems returns the number of one-vs-one binary subproblems
// the model decomposed into (0 for single-class degenerate models).
func (m *Model) BinaryProblems() int { return len(m.pairs) }

// NonConverged returns the number of binary subproblems whose SMO solve
// exhausted MaxIter before reaching the KKT tolerance. The model is
// still usable (SMO improves the dual monotonically), but a non-zero
// count means the decision boundaries may be short of optimal; callers
// should surface it as a warning rather than an error.
func (m *Model) NonConverged() int {
	n := 0
	for _, bm := range m.pairs {
		if bm.nonConverged {
			n++
		}
	}
	return n
}

// Iterations returns the total SMO iterations across all binary
// subproblems of the last training run.
func (m *Model) Iterations() int {
	total := 0
	for _, bm := range m.pairs {
		total += bm.iters
	}
	return total
}

// SupportVectors returns the total support-vector count across all
// binary subproblems (vectors shared by several pairs count once per
// pair, matching LIBSVM's per-problem accounting).
func (m *Model) SupportVectors() int {
	total := 0
	for _, bm := range m.pairs {
		total += len(bm.svX)
	}
	return total
}

// vote runs every binary decision function on x, accumulating one-vs-
// one votes and summed |decision| tie-break scores into the caller's
// scratch, and returns the winning class. votes and score must have
// length numClasses; the caller owns them so repeated scoring can be
// allocation-free (see Scorer).
func (m *Model) vote(x []int32, votes []int, score []float64) int {
	for c := range votes {
		votes[c] = 0
		score[c] = 0
	}
	for k, bm := range m.pairs {
		d := bm.decision(x)
		a, b := m.pairClass[k][0], m.pairClass[k][1]
		if d > 0 {
			votes[a]++
			score[a] += d
		} else {
			votes[b]++
			score[b] -= d
		}
	}
	return ovoWinner(votes, score, -1)
}

// ovoWinner is the one-vs-one winner rule: the class with the most
// votes, ties broken by the larger summed |decision|, then by the
// lower class index. Class skip (-1 = none) is left out, so
// ovoWinner(votes, score, best) is the runner-up. It returns -1 when
// no class is left.
func ovoWinner(votes []int, score []float64, skip int) int {
	best := -1
	for c := range votes {
		if c == skip {
			continue
		}
		if best < 0 || votes[c] > votes[best] || (votes[c] == votes[best] && score[c] > score[best]) {
			best = c
		}
	}
	return best
}

// margin returns the summed-score gap between best and the runner-up
// under the ovoWinner order, clamped at 0.
func (m *Model) margin(best int, votes []int, score []float64) float64 {
	second := ovoWinner(votes, score, best)
	if second < 0 {
		return 0
	}
	margin := score[best] - score[second]
	if margin < 0 {
		margin = 0
	}
	return margin
}

// Predict returns the predicted class for a sparse binary row.
func (m *Model) Predict(x []int32) int {
	if m.singleClass >= 0 {
		return m.singleClass
	}
	votes := make([]int, m.numClasses)
	score := make([]float64, m.numClasses) // tie-break by summed |decision|
	return m.vote(x, votes, score)
}

// PredictMargin returns the predicted class together with a
// confidence margin: the winner's summed |decision| minus the
// runner-up's. For binary problems this is |f(x)| of the single
// decision function; for one-vs-one multiclass it is the summed-score
// gap between the top two classes. Degenerate single-class models
// report margin 0. The prediction is identical to Predict's.
func (m *Model) PredictMargin(x []int32) (int, float64) {
	if m.singleClass >= 0 {
		return m.singleClass, 0
	}
	votes := make([]int, m.numClasses)
	score := make([]float64, m.numClasses)
	best := m.vote(x, votes, score)
	return best, m.margin(best, votes, score)
}

// Scorer scores rows against a fixed model through preallocated voting
// scratch, so repeated prediction costs zero allocations per row —
// the serving-loop contract core's batch predictor builds on. A Scorer
// is single-goroutine; concurrent scorers share the Model and carry
// one Scorer each. Predictions and margins are identical to the
// Model's own Predict/PredictMargin.
type Scorer struct {
	m     *Model
	votes []int
	score []float64
}

// NewScorer returns a scorer with scratch sized for this model.
func (m *Model) NewScorer() *Scorer {
	return &Scorer{
		m:     m,
		votes: make([]int, m.numClasses),
		score: make([]float64, m.numClasses),
	}
}

// Predict returns the predicted class for a sparse binary row.
func (s *Scorer) Predict(x []int32) int {
	if s.m.singleClass >= 0 {
		return s.m.singleClass
	}
	return s.m.vote(x, s.votes, s.score)
}

// PredictMargin returns the predicted class and confidence margin,
// identical to Model.PredictMargin.
func (s *Scorer) PredictMargin(x []int32) (int, float64) {
	if s.m.singleClass >= 0 {
		return s.m.singleClass, 0
	}
	best := s.m.vote(x, s.votes, s.score)
	return best, s.m.margin(best, s.votes, s.score)
}

// PredictAll predicts every row.
func (m *Model) PredictAll(x [][]int32) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

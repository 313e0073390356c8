package svm

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// noisyProblem builds a non-trivially-separable binary problem: random
// sparse rows with labels only loosely tied to the features, so SMO
// needs many iterations to approach the KKT conditions.
func noisyProblem(n, numFeatures int, seed int64) (x [][]int32, y []int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var row []int32
		for f := 0; f < numFeatures; f++ {
			if rng.Intn(2) == 0 {
				row = append(row, int32(f))
			}
		}
		label := 0
		if rng.Intn(4) != 0 { // mostly feature-driven, partly noise
			if len(row) > 0 && row[0] == 0 {
				label = 1
			}
		} else if rng.Intn(2) == 0 {
			label = 1
		}
		x = append(x, row)
		y = append(y, label)
	}
	return
}

func TestMaxIterReturnsUsableModelAndFlagsNonConvergence(t *testing.T) {
	x, y := noisyProblem(80, 10, 7)
	o := obs.New()
	m, err := Train(x, y, 2, Config{C: 10, NumFeatures: 10, MaxIter: 1, Obs: o})
	if err != nil {
		t.Fatalf("Train hitting MaxIter must still return a model, got %v", err)
	}
	if m.NonConverged() == 0 {
		t.Fatal("MaxIter=1 on a noisy problem should leave the subproblem non-converged")
	}
	if m.BinaryProblems() != 1 {
		t.Fatalf("binary problems = %d, want 1", m.BinaryProblems())
	}
	// The truncated model must still predict on every row without
	// panicking and produce in-range labels.
	for i, row := range x {
		if got := predict(m, row); got != 0 && got != 1 {
			t.Fatalf("row %d: prediction %d out of range", i, got)
		}
	}
	if got := o.Counter("svm.nonconverged").Value(); got != int64(m.NonConverged()) {
		t.Fatalf("svm.nonconverged counter = %d, want %d", got, m.NonConverged())
	}
}

func TestConvergedRunNotFlagged(t *testing.T) {
	x, y := sep2D(40)
	m, err := Train(x, y, 2, Config{C: 1, NumFeatures: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NonConverged() != 0 {
		t.Fatalf("separable problem flagged %d non-converged subproblems", m.NonConverged())
	}
}

func TestTrainPreCanceledContext(t *testing.T) {
	x, y := sep2D(40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Train(x, y, 2, Config{C: 1, NumFeatures: 2, Guard: guard.New(ctx, guard.Limits{})}); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

// TestGramPrecomputePollsGuard pins that the Gram-matrix precompute
// honours cancellation: at gramCacheLimit rows it fills ~8M kernel
// entries before the first SMO iteration, so a guard polled only there
// would let a canceled solve run for seconds.
func TestGramPrecomputePollsGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([][]int32, gramCacheLimit)
	y := make([]float64, gramCacheLimit)
	for i := range x {
		for _, it := range rng.Perm(200)[:40] {
			x[i] = append(x[i], int32(it))
		}
		sort.Slice(x[i], func(a, b int) bool { return x[i][a] < x[i][b] })
		y[i] = float64(2*(i%2) - 1)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := trainBinary(x, y, smoConfig{c: 1, eps: 1e-3, maxIter: 1000, gamma: 1,
		g: guard.New(ctx, guard.Limits{})})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("canceled solve took %v; the Gram precompute must poll the guard", d)
	}
}

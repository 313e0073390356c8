package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dfpc/internal/guard"
	"dfpc/internal/mining"
	"dfpc/internal/parallel"
)

// TestFitBudgetFailPolicy pins the single outcome of a pattern-budget
// trip: the fit fails with mining.ErrPatternBudget at the min_sup the
// caller asked for, with the same error at every worker count and no
// warnings recorded.
func TestFitBudgetFailPolicy(t *testing.T) {
	d := xorDataset(80)
	var first string
	for _, w := range []parallel.Workers{1, 2, 8} {
		p, err := New(Config{
			Learner:     SVMLinear,
			UsePatterns: true,
			MinSupport:  0.05,
			MaxPatterns: 2, // tiny budget: mining must trip it
			Workers:     w,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Fit(d, allRows(d.NumRows()))
		if !errors.Is(err, mining.ErrPatternBudget) {
			t.Fatalf("workers %d: err = %v, want mining.ErrPatternBudget", w, err)
		}
		if first == "" {
			first = err.Error()
			if !strings.Contains(first, "min_sup=0.05") {
				t.Fatalf("err = %q, want the requested min_sup=0.05", first)
			}
		} else if err.Error() != first {
			t.Fatalf("workers %d: err = %q, want %q as at workers 1", w, err, first)
		}
		if len(p.Stats.Warnings) != 0 {
			t.Fatalf("workers %d: budget trip recorded warnings %v", w, p.Stats.Warnings)
		}
	}
}

func TestFitContextPreCanceled(t *testing.T) {
	d := xorDataset(80)
	p := NewPatFS(SVMLinear, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.FitContext(ctx, d, allRows(d.NumRows())); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

func TestPredictContextPreCanceled(t *testing.T) {
	d := xorDataset(80)
	p := NewPatFS(SVMLinear, 0.2)
	rows := allRows(d.NumRows())
	if err := p.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.PredictBatch(ctx, d, rows, make([]int, len(rows))); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want guard.ErrCanceled", err)
	}
}

func TestStageTimeoutAlreadyExpired(t *testing.T) {
	d := xorDataset(80)
	p, err := New(Config{
		Learner:      SVMLinear,
		UsePatterns:  true,
		MinSupport:   0.2,
		StageTimeout: 1, // 1ns: every stage deadline is already past
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Fit(d, allRows(d.NumRows()))
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("err = %v, want guard.ErrDeadline", err)
	}
}

package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dfpc/internal/guard"
	"dfpc/internal/mining"
)

func TestFitBudgetFailPolicy(t *testing.T) {
	d := xorDataset(80)
	p, err := New(Config{
		Learner:     SVMLinear,
		UsePatterns: true,
		MinSupport:  0.05,
		MaxPatterns: 2, // tiny budget: mining must trip it
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Fit(d, allRows(d.NumRows()))
	if !errors.Is(err, mining.ErrPatternBudget) {
		t.Fatalf("err = %v, want mining.ErrPatternBudget", err)
	}
}

func TestFitBudgetDegradePolicy(t *testing.T) {
	d := xorDataset(80)
	p, err := New(Config{
		Learner:     SVMLinear,
		UsePatterns: true,
		MinSupport:  0.05,
		MaxPatterns: 12, // trips at 0.05 but fits once min_sup escalates
		OnBudget:    DegradeOnBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(d, allRows(d.NumRows())); err != nil {
		t.Fatalf("degrading fit should succeed, got %v", err)
	}
	if len(p.Stats.Warnings) == 0 {
		t.Fatal("degraded fit recorded no warnings")
	}
	found := false
	for _, w := range p.Stats.Warnings {
		if w.Stage == "mine" && strings.Contains(w.Message, "min_sup") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no min_sup escalation warning in %v", p.Stats.Warnings)
	}
	if p.Stats.MinSupport <= 0.05 {
		t.Fatalf("Stats.MinSupport = %v, want escalated above 0.05", p.Stats.MinSupport)
	}
	// The degraded model must still predict.
	if _, err := predict(p, d, allRows(d.NumRows())); err != nil {
		t.Fatalf("predict after degraded fit: %v", err)
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

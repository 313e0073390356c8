package core

import (
	"testing"

	"dfpc/internal/modelobs"
)

// Measured allocation baselines for Predict on the XOR pipeline. The
// compiled predict path (rowCoder + featureVectorInto + matcher
// scratch + learner scorer) owns no per-row state, so the marginal
// cost of an additional row is exactly zero allocations — with drift
// tracking off or on. The batch fixed cost covers the output slice,
// batch predictor scratch, context, guard, and telemetry span set up
// once per call. Pinning these dynamically catches a regression that
// slips past the hotalloc analyzer (e.g. through an unanalyzed
// dependency). Raise only with a reason in the diff.
const (
	predictRowAllocBudget   = 0
	predictBatchAllocBudget = 48
	// Drift-on marginal: ObserveRow and the scorer's confidence path
	// reuse bound scratch, so drift tracking adds no per-row
	// allocations either.
	predictRowDriftAllocBudget = 0
)

func fitXORPipeline(tb testing.TB) (*Pipeline, []int, int) {
	tb.Helper()
	d := xorDataset(80)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	p := NewPatFS(SVMLinear, 0.2)
	if err := p.Fit(d, rows); err != nil {
		tb.Fatal(err)
	}
	return p, rows, d.NumRows()
}

func TestPredictAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget holds only in non-race builds")
	}
	p, rows, n := fitXORPipeline(t)
	d := xorDataset(80)
	one := []int{0}
	single := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(d, one); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(d, rows); err != nil {
			t.Fatal(err)
		}
	})
	marginal := (batch - single) / float64(n-1)
	if marginal > predictRowAllocBudget {
		t.Errorf("Predict allocates %.2f times per additional row, budget is %d", marginal, predictRowAllocBudget)
	}
	if single > predictBatchAllocBudget {
		t.Errorf("single-row Predict allocates %.1f times, batch budget is %d", single, predictBatchAllocBudget)
	}
}

// TestPredictDriftAllocBudget pins the drift-enabled predict path: the
// tracker's sketch buffers are allocated once at Bind, so the marginal
// per-row cost over the drift-off baseline is only the learner's
// confidence scratch (PredictMargin's vote/score slices for SVM), never
// per-row tracker state.
func TestPredictDriftAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget holds only in non-race builds")
	}
	p, rows, n := fitXORPipeline(t)
	d := xorDataset(80)
	p.SetDriftTracker(modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 64}))
	one := []int{0}
	// Warm up so Bind's one-time sketch allocation is out of the loop.
	if _, err := p.Predict(d, one); err != nil {
		t.Fatal(err)
	}
	single := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(d, one); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(200, func() {
		if _, err := p.Predict(d, rows); err != nil {
			t.Fatal(err)
		}
	})
	marginal := (batch - single) / float64(n-1)
	if marginal > predictRowDriftAllocBudget {
		t.Errorf("drift-on Predict allocates %.2f times per additional row, budget is %d", marginal, predictRowDriftAllocBudget)
	}
	if single > predictBatchAllocBudget {
		t.Errorf("drift-on single-row Predict allocates %.1f times, batch budget is %d", single, predictBatchAllocBudget)
	}
}

func BenchmarkPredictAllocs(b *testing.B) {
	p, rows, _ := fitXORPipeline(b)
	d := xorDataset(80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(d, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDriftOn is the drift-enabled twin of
// BenchmarkPredictAllocs; a regression in the tracker's ObserveRow path
// (which should be allocation-free) shows up as a widening gap between
// the pair, and TestPredictDriftAllocBudget fails on it.
func BenchmarkPredictDriftOn(b *testing.B) {
	p, rows, _ := fitXORPipeline(b)
	d := xorDataset(80)
	p.SetDriftTracker(modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 64}))
	if _, err := p.Predict(d, rows); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Predict(d, rows); err != nil {
			b.Fatal(err)
		}
	}
}

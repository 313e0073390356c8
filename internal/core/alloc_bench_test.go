package core

import (
	"context"
	"fmt"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/modelobs"
)

// Allocation budgets for Predict. The compiled predict path (rowCoder
// + featureVectorInto + matcher scratch + learner scorer) owns no
// per-row state, so the marginal cost of an additional row is exactly
// zero allocations for every learner and model family — with drift
// tracking off or on (ObserveRow and the scorers' confidence paths
// reuse bound scratch). The batch fixed cost covers the batch
// predictor scratch, guard, and telemetry span set up once per call.
// Raise only with a reason in the diff.
const (
	predictRowAllocBudget   = 0
	predictBatchAllocBudget = 48
)

func fitXORPipeline(tb testing.TB) (*Pipeline, []int, int) {
	tb.Helper()
	d := xorDataset(80)
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	p := NewFamily(PatFS, Config{MinSupport: 0.2})
	if err := p.Fit(d, rows); err != nil {
		tb.Fatal(err)
	}
	return p, rows, d.NumRows()
}

// TestPredictAllocBudget pins the marginal per-row allocation count of
// Predict at zero for every learner × model family of Tables 1–2 (plus
// kNN and naive Bayes), on the XOR set and on austral's numeric and
// categorical attributes, with drift tracking off.
func TestPredictAllocBudget(t *testing.T) {
	runPredictAllocTable(t, false)
}

// TestPredictDriftAllocBudget runs the same table with a drift tracker
// attached: the tracker's sketch buffers are allocated once at Bind, so
// drift tracking adds no per-row allocations either.
func TestPredictDriftAllocBudget(t *testing.T) {
	runPredictAllocTable(t, true)
}

// runPredictAllocTable fits every learner × family case on each dataset
// and holds its Predict allocations to budget, with a drift tracker
// attached when drift is set.
func runPredictAllocTable(t *testing.T, drift bool) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget holds only in non-race builds")
	}
	austral, err := datagen.ByName("austral", 1)
	if err != nil {
		t.Fatal(err)
	}
	datasets := []struct {
		d      *dataset.Dataset
		minSup float64
		rows   int // rows predicted per batch
	}{
		{xorDataset(80), 0.2, 80},
		{austral, 0.15, 32},
	}
	families := []Family{ItemAll, ItemFS, PatFS}
	type budgetCase struct {
		learner Learner
		family  Family
	}
	var cases []budgetCase
	for _, l := range []Learner{SVMLinear, C45Tree} {
		for _, f := range families {
			cases = append(cases, budgetCase{l, f})
		}
	}
	cases = append(cases, budgetCase{SVMRBF, families[0]})

	for _, ds := range datasets {
		all := make([]int, ds.d.NumRows())
		for i := range all {
			all[i] = i
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s/%s", ds.d.Name, c.learner, c.family), func(t *testing.T) {
				p := NewFamily(c.family, Config{Learner: c.learner, MinSupport: ds.minSup})
				if err := p.Fit(ds.d, all); err != nil {
					t.Fatal(err)
				}
				if drift {
					p.SetDriftTracker(modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 64}))
				}
				checkPredictAllocs(t, p, ds.d, all[:ds.rows], drift)
			})
		}
	}
}

// checkPredictAllocs measures single-row and batch Predict allocations
// and holds the marginal per-row cost and the fixed cost to budget.
func checkPredictAllocs(t *testing.T, p *Pipeline, d *dataset.Dataset, rows []int, drift bool) {
	t.Helper()
	ctx := context.Background()
	one, out := rows[:1], make([]int, len(rows))
	// Warm up so the drift tracker's one-time Bind allocation is out of
	// the measured loop.
	if err := p.PredictBatch(ctx, d, one, out[:1]); err != nil {
		t.Fatal(err)
	}
	single := testing.AllocsPerRun(20, func() {
		if err := p.PredictBatch(ctx, d, one, out[:1]); err != nil {
			t.Fatal(err)
		}
	})
	batch := testing.AllocsPerRun(20, func() {
		if err := p.PredictBatch(ctx, d, rows, out); err != nil {
			t.Fatal(err)
		}
	})
	marginal := (batch - single) / float64(len(rows)-1)
	if marginal > predictRowAllocBudget {
		t.Errorf("drift=%v: Predict allocates %.2f times per additional row, budget is %d", drift, marginal, predictRowAllocBudget)
	}
	if single > predictBatchAllocBudget {
		t.Errorf("drift=%v: single-row Predict allocates %.1f times, batch budget is %d", drift, single, predictBatchAllocBudget)
	}
}

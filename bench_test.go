package dfpc

// Benchmark harness: one benchmark per table and figure of the paper,
// plus the DESIGN.md ablations and micro-benchmarks of the hot paths.
//
// Each table/figure benchmark runs a reduced-fidelity configuration
// (3-fold CV, dataset subsets, subsampled dense sets) so that the whole
// suite completes in minutes on one core; `cmd/experiments` runs the
// full-fidelity versions (10-fold CV, full-size dense datasets, the
// paper's exact min_sup grids). Reported numbers land in
// EXPERIMENTS.md. Benchmarks log their headline result via b.Log so a
// -v run doubles as a results transcript.

import (
	"context"
	"io"
	"log/slog"
	"math/rand"
	"testing"

	"dfpc/internal/bitset"
	"dfpc/internal/dataset"
	"dfpc/internal/experiments"
	"dfpc/internal/graphmining"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/seqmining"
)

// benchProto is the reduced protocol shared by the table benches.
var benchProto = experiments.Protocol{Folds: 3}

// benchTable1Names is a representative subset of the 19 datasets:
// categorical, numeric, two-class and multi-class skewed.
var benchTable1Names = []string{"austral", "breast", "heart", "zoo"}

func BenchmarkTable1SVM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable1(context.Background(), benchTable1Names, benchProto)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("table1 %-8s Item_All=%.2f Item_FS=%.2f Item_RBF=%.2f Pat_All=%.2f Pat_FS=%.2f",
				r.Dataset, r.ItemAll, r.ItemFS, r.ItemRBF, r.PatAll, r.PatFS)
		}
	}
}

func BenchmarkTable2C45(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTable2(context.Background(), benchTable1Names, benchProto)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("table2 %-8s Item_All=%.2f Item_FS=%.2f Pat_All=%.2f Pat_FS=%.2f",
				r.Dataset, r.ItemAll, r.ItemFS, r.PatAll, r.PatFS)
		}
	}
}

func benchScalability(b *testing.B, cfg experiments.ScalabilityConfig) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunScalability(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Infeasible {
				b.Logf("%s min_sup=%d N/A (budget exceeded)", cfg.Dataset, r.MinSupport)
				continue
			}
			b.Logf("%s min_sup=%d patterns=%d time=%.3fs svm=%.2f c45=%.2f",
				cfg.Dataset, r.MinSupport, r.Patterns, r.Time.Seconds(), r.SVMAcc, r.C45Acc)
		}
	}
}

func BenchmarkTable3Chess(b *testing.B) {
	benchScalability(b, experiments.ScalabilityConfig{
		Dataset:     "chess",
		AbsSupports: []int{1, 1120, 1050, 940, 830, 750},
		SampleRows:  1200,
		MaxPatterns: 500_000,
	})
}

func BenchmarkTable4Waveform(b *testing.B) {
	benchScalability(b, experiments.ScalabilityConfig{
		Dataset:     "waveform",
		AbsSupports: []int{1, 60, 45},
		SampleRows:  1500,
		MaxPatterns: 300_000,
	})
}

func BenchmarkTable5Letter(b *testing.B) {
	benchScalability(b, experiments.ScalabilityConfig{
		Dataset:     "letter",
		AbsSupports: []int{1, 700, 600},
		SampleRows:  3000,
		MaxPatterns: 300_000,
	})
}

func BenchmarkHarmonyComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunHarmonyComparison(context.Background(), "waveform", 0.1, 2000)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("harmony %s Pat_FS=%.2f HARMONY=%.2f CBA=%.2f", r.Dataset, r.PatFS, r.Harmony, r.CBA)
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure1([]string{"austral", "breast", "sonar"}, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("figure1: %d (dataset, length) series points", len(rows))
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure2([]string{"austral", "breast", "sonar"}, 0.1, 20)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.MaxValue > r.Bound+1e-9 {
				b.Fatalf("bound violated at support %d: %v > %v", r.Support, r.MaxValue, r.Bound)
			}
		}
		b.Logf("figure2: %d support buckets, all under the IG bound", len(rows))
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFigure3([]string{"austral", "breast", "sonar"}, 0.1, 20)
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("figure3: %d support buckets", len(rows))
	}
}

func BenchmarkMinSupSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMinSupSweep(context.Background(), "austral", []float64{0.4, 0.2, 0.1, 0.05}, experiments.Protocol{Folds: 3})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("minsup %.2f patterns=%d acc=%.2f", r.MinSupport, r.Patterns, r.Accuracy)
		}
	}
}

// Ablation benchmarks (DESIGN.md §5).

func benchAblation(b *testing.B, run func() ([]experiments.AblationRow, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.Logf("%-28s features=%d acc=%.2f", r.Variant, r.Features, r.Accuracy)
		}
	}
}

func BenchmarkAblationClosedVsAll(b *testing.B) {
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.RunAblationClosedVsAll(context.Background(), "austral", 0.15, experiments.Protocol{Folds: 3})
	})
}

func BenchmarkAblationRedundancy(b *testing.B) {
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.RunAblationRedundancy(context.Background(), "austral", 0.15, experiments.Protocol{Folds: 3})
	})
}

func BenchmarkAblationRelevance(b *testing.B) {
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.RunAblationRelevance(context.Background(), "austral", 0.15, experiments.Protocol{Folds: 3})
	})
}

func BenchmarkAblationCoverage(b *testing.B) {
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.RunAblationCoverage(context.Background(), "austral", 0.15, []int{1, 3, 5}, experiments.Protocol{Folds: 3})
	})
}

func BenchmarkAblationMinSupStrategy(b *testing.B) {
	benchAblation(b, func() ([]experiments.AblationRow, error) {
		return experiments.RunAblationMinSupStrategy(context.Background(), "austral", []float64{0.3, 0.1}, experiments.Protocol{Folds: 3})
	})
}

// Micro-benchmarks of the pipeline's hot paths.

func benchBinary(b *testing.B, name string) *dataset.Binary {
	b.Helper()
	d, err := Generate(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	bin, err := dataset.Encode(d)
	if err != nil {
		b.Fatal(err)
	}
	return bin
}

func BenchmarkMinePerClassChess(b *testing.B) {
	bin := benchBinary(b, "chess")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.MinePerClass(bin, mining.PerClassOptions{
			MinSupport: 0.78, Closed: true, MinLen: 2,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineClosedVsAll mines the first 800 chess rows at absolute
// support 600, closed and all-frequent.
func BenchmarkMineClosedVsAll(b *testing.B) {
	bin := benchBinary(b, "chess")
	cols := make([]*bitset.Bitset, len(bin.Columns))
	for i := range cols {
		cols[i] = bitset.New(800)
	}
	for r, row := range bin.Rows[:800] {
		for _, it := range row {
			cols[it].Set(r)
		}
	}
	for _, closed := range []bool{true, false} {
		b.Run(map[bool]string{true: "closed", false: "all"}[closed], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mining.Mine(cols, mining.Options{MinSupport: 600, Closed: closed}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitInstrumentationOff is the no-observer, no-logger
// baseline for the observability layer: a nil observer and nil logger
// reduce every span/counter/histogram/log call to a nil check. Compare
// with BenchmarkFitInstrumentationOn to see the recording cost.
func BenchmarkFitInstrumentationOff(b *testing.B) {
	benchFitObserved(b, nil, nil)
}

// BenchmarkFitInstrumentationOn measures the same fit with a live
// observer recording spans, counters, and stage-duration histograms.
func BenchmarkFitInstrumentationOn(b *testing.B) {
	benchFitObserved(b, NewObserver(), nil)
}

// BenchmarkFitInstrumentationOnWithLog additionally installs an
// enabled-but-discarding slog logger, pricing the logging plumbing
// itself (attribute construction never happens: the discard handler
// rejects every level before formatting).
func BenchmarkFitInstrumentationOnWithLog(b *testing.B) {
	benchFitObserved(b, NewObserver(), obs.DiscardLogger())
}

// BenchmarkFitIntrospectionDeep prices the full introspection path on
// top of the live observer: snapshotting the RunReport, exporting the
// Perfetto trace, and producing per-prediction explanations. Compare
// against BenchmarkFitInstrumentationOn for the introspection surcharge
// and against BenchmarkFitInstrumentationOff for the total.
func BenchmarkFitIntrospectionDeep(b *testing.B) {
	d, err := Generate("heart", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	o := NewObserver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Reset()
		clf := NewClassifier(PatFS, SVM, WithMinSupport(0.15), WithObserver(o))
		if err := clf.Fit(d, rows); err != nil {
			b.Fatal(err)
		}
		if _, err := clf.PredictExplain(context.Background(), d, rows[:50]); err != nil {
			b.Fatal(err)
		}
		if err := o.Report("bench").WriteTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFitObserved fits Pat_FS+SVM on heart and predicts 50 rows per
// op under the given observer and logger.
func benchFitObserved(b *testing.B, o *Observer, log *slog.Logger) {
	d, err := Generate("heart", 1)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	out := make([]int, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o != nil {
			o.Reset()
		}
		clf := NewClassifier(PatFS, SVM, WithMinSupport(0.15), WithObserver(o), WithLogger(log))
		if err := clf.Fit(d, rows); err != nil {
			b.Fatal(err)
		}
		if err := clf.PredictBatch(context.Background(), d, rows[:50], out); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension benchmarks: the paper's future-work directions (sequence
// and graph classification) end-to-end.

func BenchmarkSequenceExtension(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var db []seqmining.Sequence
	var y []int
	for i := 0; i < 200; i++ {
		c := i % 2
		var s seqmining.Sequence
		for j := 0; j < 3+r.Intn(4); j++ {
			s = append(s, int32(r.Intn(5)))
		}
		if c == 0 {
			s = append(s, 5, int32(r.Intn(5)), 6)
		} else {
			s = append(s, 6, int32(r.Intn(5)), 5)
		}
		db = append(db, s)
		y = append(y, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := &seqmining.Classifier{MinSupport: 0.4, MaxLen: 3}
		if err := clf.Fit(context.Background(), db, y, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := clf.PredictAll(db[:20]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphExtension(b *testing.B) {
	var db []*graphmining.Graph
	var y []int
	for i := 0; i < 60; i++ {
		c := i % 2
		g := &graphmining.Graph{VertexLabels: []int32{1, 2, 3}}
		g.Edges = []graphmining.Edge{{From: 0, To: 1}, {From: 1, To: 2}}
		if c == 0 {
			g.Edges = append(g.Edges, graphmining.Edge{From: 0, To: 2})
		}
		db = append(db, g)
		y = append(y, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clf := &graphmining.Classifier{MinSupport: 0.5, MaxEdges: 3}
		if err := clf.Fit(context.Background(), db, y, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := clf.PredictAll(db[:10]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLearners compares the paper's two learners on the
// same Pat_FS feature space — the framework's learner-agnosticism in
// numbers.
func BenchmarkAblationLearners(b *testing.B) {
	d, err := Generate("heart", 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, l := range []Learner{SVM, C45} {
			clf := NewClassifier(PatFS, l, WithMinSupport(0.15))
			res, err := CrossValidate(clf, d, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.Logf("learner %-10v acc=%.2f", l, 100*res.Mean)
		}
	}
}

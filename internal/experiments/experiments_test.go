package experiments

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// The experiment smoke tests run reduced-fidelity configurations (few
// folds, small datasets, high min_sup) and assert the structural and
// qualitative properties the paper reports, not absolute numbers.

func TestRunTable1Smoke(t *testing.T) {
	rows, err := RunTable1(context.Background(), []string{"labor", "zoo"}, Protocol{Folds: 3, MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.ItemAll, r.ItemFS, r.ItemRBF, r.PatAll, r.PatFS} {
			if v < 10 || v > 100 {
				t.Fatalf("%s: implausible accuracy %v", r.Dataset, v)
			}
		}
	}
	var buf bytes.Buffer
	WriteTable1(&buf, rows)
	if !strings.Contains(buf.String(), "labor") || !strings.Contains(buf.String(), "Pat_FS") {
		t.Fatalf("render missing content:\n%s", buf.String())
	}
}

func TestRunTable2Smoke(t *testing.T) {
	rows, err := RunTable2(context.Background(), []string{"labor"}, Protocol{Folds: 3, MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	WriteTable2(&buf, rows)
	if !strings.Contains(buf.String(), "C4.5") {
		t.Fatal("render missing title")
	}
}

func TestRunScalabilitySmoke(t *testing.T) {
	rows, err := RunScalability(context.Background(), ScalabilityConfig{
		Dataset:     "chess",
		AbsSupports: []int{700, 650},
		SampleRows:  800,
		MaxPatterns: 300000,
		MaxLen:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower min_sup must never yield fewer patterns.
	if !rows[0].Infeasible && !rows[1].Infeasible && rows[1].Patterns < rows[0].Patterns {
		t.Fatalf("pattern count not monotone: %+v", rows)
	}
	var buf bytes.Buffer
	WriteScalability(&buf, "Table 3 (smoke)", rows)
	if !strings.Contains(buf.String(), "#Patterns") {
		t.Fatal("render missing header")
	}
}

func TestScalabilityInfeasibleRow(t *testing.T) {
	rows, err := RunScalability(context.Background(), ScalabilityConfig{
		Dataset:     "chess",
		AbsSupports: []int{1},
		SampleRows:  400,
		MaxPatterns: 500, // tiny budget → guaranteed abort, the paper's N/A row
		MaxLen:      0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !rows[0].Infeasible {
		t.Fatalf("expected infeasible row, got %+v", rows)
	}
	var buf bytes.Buffer
	WriteScalability(&buf, "smoke", rows)
	if !strings.Contains(buf.String(), "N/A") {
		t.Fatal("render missing N/A")
	}
}

func TestRunFigure1Smoke(t *testing.T) {
	rows, err := RunFigure1([]string{"breast"}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("rows = %d, want lengths >= 2", len(rows))
	}
	// Figure 1's claim: some pattern (length >= 2) has higher IG than
	// every single feature.
	var bestSingle, bestPattern float64
	for _, r := range rows {
		if r.Length == 1 && r.MaxIG > bestSingle {
			bestSingle = r.MaxIG
		}
		if r.Length >= 2 && r.MaxIG > bestPattern {
			bestPattern = r.MaxIG
		}
	}
	if bestPattern <= bestSingle {
		t.Fatalf("no pattern beats singles: pattern %v vs single %v", bestPattern, bestSingle)
	}
	var buf bytes.Buffer
	WriteFigure1(&buf, rows)
	if !strings.Contains(buf.String(), "Length") {
		t.Fatal("render missing header")
	}
}

func TestRunFigure2BoundDominates(t *testing.T) {
	rows, err := RunFigure2([]string{"breast"}, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.MaxValue > r.Bound+1e-9 {
			t.Fatalf("empirical IG %v exceeds bound %v at support %d", r.MaxValue, r.Bound, r.Support)
		}
	}
	var buf bytes.Buffer
	WriteBoundFigure(&buf, "Figure 2 (smoke)", "IG", rows)
	if !strings.Contains(buf.String(), "IG_ub") {
		t.Fatal("render missing bound column")
	}
}

func TestRunFigure3BoundDominates(t *testing.T) {
	rows, err := RunFigure3([]string{"breast"}, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !math.IsInf(r.Bound, 1) && r.MaxValue > r.Bound+1e-9 {
			t.Fatalf("empirical Fisher %v exceeds bound %v at support %d", r.MaxValue, r.Bound, r.Support)
		}
	}
}

func TestRunMinSupSweepSmoke(t *testing.T) {
	rows, err := RunMinSupSweep(context.Background(), "labor", []float64{0.5, 0.3}, Protocol{Folds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Lower min_sup → at least as many patterns.
	if rows[1].Patterns < rows[0].Patterns {
		t.Fatalf("pattern count not monotone: %+v", rows)
	}
	var buf bytes.Buffer
	WriteMinSupSweep(&buf, rows)
	if !strings.Contains(buf.String(), "min_sup") {
		t.Fatal("render missing header")
	}
}

func TestRunHarmonyComparisonSmoke(t *testing.T) {
	row, err := RunHarmonyComparison(context.Background(), "labor", 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if row.Dataset != "labor" || row.PatFS <= 0 || row.Harmony <= 0 || row.CBA <= 0 {
		t.Fatalf("implausible row: %+v", row)
	}
	var buf bytes.Buffer
	WriteHarmonyHeader(&buf)
	WriteHarmonyRow(&buf, row)
	if lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n"); len(lines) != 3 ||
		!strings.Contains(lines[1], "HARMONY") || !strings.HasPrefix(lines[2], "labor ") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestAblationsSmoke(t *testing.T) {
	if rows, err := RunAblationClosedVsAll(context.Background(), "labor", 0.4, Protocol{Folds: 3}); err != nil || len(rows) != 2 {
		t.Fatalf("closed-vs-all: %v rows=%d", err, len(rows))
	}
	if rows, err := RunAblationRedundancy(context.Background(), "labor", 0.4, Protocol{Folds: 3}); err != nil || len(rows) != 2 {
		t.Fatalf("redundancy: %v rows=%d", err, len(rows))
	}
	if rows, err := RunAblationRelevance(context.Background(), "labor", 0.4, Protocol{Folds: 3}); err != nil || len(rows) != 2 {
		t.Fatalf("relevance: %v rows=%d", err, len(rows))
	}
	if rows, err := RunAblationCoverage(context.Background(), "labor", 0.4, []int{1, 3}, Protocol{Folds: 3}); err != nil || len(rows) != 2 {
		t.Fatalf("coverage: %v rows=%d", err, len(rows))
	}
	rows, err := RunAblationMinSupStrategy(context.Background(), "labor", []float64{0.4}, Protocol{Folds: 3})
	if err != nil || len(rows) != 2 {
		t.Fatalf("strategy: %v rows=%d", err, len(rows))
	}
	var buf bytes.Buffer
	WriteAblation(&buf, "smoke", rows)
	if !strings.Contains(buf.String(), "Variant") {
		t.Fatal("render missing header")
	}
}

// The redundancy ablation isolates the selector, so its MMRFS and
// top-k rows must select from the same mined pool. heart at 0.2 mines
// patterns longer than five items, so a shorter length cap on either
// row shows up as a pool mismatch.
func TestAblationRedundancySamePool(t *testing.T) {
	rows, err := RunAblationRedundancy(context.Background(), "heart", 0.2, Protocol{Folds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Pool == 0 || rows[0].Pool != rows[1].Pool {
		t.Fatalf("mined pools differ: %s %d vs %s %d", rows[0].Variant, rows[0].Pool, rows[1].Variant, rows[1].Pool)
	}
}

func TestCSVEmitters(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1CSV(&buf, []Table1Row{{Dataset: "x", ItemAll: 80, PatFS: 90}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dataset,item_all") || !strings.Contains(buf.String(), "x,80.0000") {
		t.Fatalf("table1 csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := Table2CSV(&buf, []Table2Row{{Dataset: "x"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pat_fs") {
		t.Fatal("table2 csv missing header")
	}

	buf.Reset()
	err := ScalabilityCSV(&buf, []ScalabilityRow{
		{MinSupport: 100, Patterns: 5, SVMAcc: 90, C45Acc: 85},
		{MinSupport: 1, Infeasible: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "100,5,") || !strings.Contains(out, "1,,,,,1") {
		t.Fatalf("scalability csv:\n%s", out)
	}

	buf.Reset()
	if err := Figure1CSV(&buf, []Figure1Row{{Dataset: "x", Length: 2, Count: 3, MaxIG: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,2,3,0.5000") {
		t.Fatalf("figure1 csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := BoundFigureCSV(&buf, []FigureBoundRow{{Dataset: "x", Support: 7, Bound: math.Inf(1)}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ",inf") {
		t.Fatalf("bound csv should render inf:\n%s", buf.String())
	}

	buf.Reset()
	if err := MinSupSweepCSV(&buf, []MinSupSweepRow{{Dataset: "x", MinSupport: 0.1, Patterns: 9, Accuracy: 88}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,0.1000,9,88.0000") {
		t.Fatalf("minsup csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := HarmonyCSV(&buf, []HarmonyRow{{Dataset: "x", PatFS: 90, Harmony: 85, CBA: 80}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,90.0000,85.0000,80.0000") {
		t.Fatalf("harmony csv:\n%s", buf.String())
	}

	buf.Reset()
	if err := AblationCSV(&buf, []AblationRow{{Dataset: "x", Variant: "v", Features: 4, Accuracy: 77}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "x,v,4,77.0000") {
		t.Fatalf("ablation csv:\n%s", buf.String())
	}
}

func TestMinSupFor(t *testing.T) {
	// Explicit protocol value wins.
	if got := minSupFor("anneal", Protocol{MinSupport: 0.42}); got != 0.42 {
		t.Fatalf("explicit = %v", got)
	}
	// Tuned per-dataset value otherwise.
	if got := minSupFor("anneal", Protocol{}); got != perDatasetMinSup["anneal"] {
		t.Fatalf("anneal = %v", got)
	}
	// Fallback for unknown datasets.
	if got := minSupFor("mystery", Protocol{}); got != 0.15 {
		t.Fatalf("fallback = %v", got)
	}
	// Negative values (automatic strategy) pass through.
	if got := minSupFor("anneal", Protocol{MinSupport: -1}); got != -1 {
		t.Fatalf("auto = %v", got)
	}
}

func TestPerDatasetMinSupCoversTable1(t *testing.T) {
	for _, name := range []string{
		"anneal", "austral", "auto", "breast", "cleve", "diabetes",
		"glass", "heart", "hepatic", "horse", "iono", "iris", "labor",
		"lymph", "pima", "sonar", "vehicle", "wine", "zoo",
		"chess", "waveform", "letter",
	} {
		if _, ok := perDatasetMinSup[name]; !ok {
			t.Errorf("no tuned min_sup for %s", name)
		}
	}
}

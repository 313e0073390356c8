// Command experiments regenerates the paper's tables and figures on the
// synthetic dataset stand-ins (see DESIGN.md for the experiment index).
//
// Usage:
//
//	experiments -table 1            # Table 1 (SVM, 19 datasets)
//	experiments -table 2            # Table 2 (C4.5)
//	experiments -table 3|4|5        # scalability (Chess/Waveform/Letter)
//	experiments -table harmony      # Section 5 rule-based comparison
//	experiments -figure 1|2|3       # IG/Fisher figures with bounds
//	experiments -figure minsup      # Section 3.2 min_sup sweep
//	experiments -ablations          # DESIGN.md §5 ablation suite
//	experiments -all                # everything
//	experiments -quick              # reduced-fidelity everything (3 folds, samples)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"dfpc/internal/datagen"
	"dfpc/internal/durable"
	"dfpc/internal/experiments"
	"dfpc/internal/faults"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
	"dfpc/internal/telemetry"
)

func main() {
	table := flag.String("table", "", "table to regenerate: 1, 2, 3, 4, 5, or harmony")
	figure := flag.String("figure", "", "figure to regenerate: 1, 2, 3, or minsup")
	ablations := flag.Bool("ablations", false, "run the ablation suite")
	all := flag.Bool("all", false, "run every experiment")
	quick := flag.Bool("quick", false, "reduced fidelity: 3 folds, subsampled dense sets")
	folds := flag.Int("folds", 0, "cross-validation folds (default 10, or 3 with -quick)")
	csvDir := flag.String("csv", "", "also write results as CSV files into this directory")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-stage wall-clock bound within each fit (0 = unbounded)")
	contOnError := flag.Bool("continue-on-error", false, "isolate failing CV folds; table cells then cover the completed folds")
	workers := flag.Int("workers", 1, "worker goroutines for CV folds, mining, MMRFS, and SVM (0 = all CPUs; results are identical at any count)")
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	ctx, ses, err := tf.Start("experiments")
	if err != nil {
		ses.Fail(err)
	}
	defer ses.Close()
	cfg := runConfig{
		folds:        *folds,
		quick:        *quick,
		csvDir:       *csvDir,
		obs:          ses.Obs,
		log:          ses.Log,
		stageTimeout: *stageTimeout,
		contOnError:  *contOnError,
		workers:      parallel.Workers(*workers),
		faults:       ses.Faults,
	}
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			ses.Fail(err)
		}
	}
	if cfg.folds == 0 {
		cfg.folds = 10
		if cfg.quick {
			cfg.folds = 3
		}
	}

	start := time.Now()
	switch {
	case *all:
		err = runAll(ctx, cfg)
	case *table != "":
		err = runTable(ctx, cfg, *table)
	case *figure != "":
		err = runFigure(ctx, cfg, *figure)
	case *ablations:
		err = runAblations(ctx, cfg)
	default:
		flag.Usage()
		ses.Close()
		os.Exit(2)
	}
	if err != nil {
		ses.Fail(err)
	}
	elapsed := time.Since(start)
	kind := "table"
	target := *table
	switch {
	case *all:
		kind, target = "table", "all"
	case *figure != "":
		kind, target = "figure", *figure
	case *ablations:
		kind, target = "table", "ablations"
	}
	if err := ses.Finish("experiments", telemetry.Record{
		Kind: kind,
		Config: map[string]any{
			"target": target,
			"folds":  cfg.folds,
			"quick":  cfg.quick,
		},
		Folds:  cfg.folds,
		WallNS: int64(elapsed),
	}); err != nil {
		ses.Fail(err)
	}
	fmt.Printf("\ndone in %v\n", elapsed.Round(time.Millisecond))
}

type runConfig struct {
	folds  int
	quick  bool
	csvDir string
	obs    *obs.Observer // nil unless -verbose, -report, -listen, or -journal
	log    *slog.Logger  // the telemetry session's root logger

	// bounded-execution settings threaded into every experiment
	stageTimeout time.Duration
	contOnError  bool
	workers      parallel.Workers
	faults       *faults.Registry
}

// protocol builds the experiments.Protocol carrying the run's
// bounded-execution settings.
func (c runConfig) protocol() experiments.Protocol {
	return experiments.Protocol{
		Folds:           c.folds,
		StageTimeout:    c.stageTimeout,
		ContinueOnError: c.contOnError,
		Workers:         c.workers,
		Log:             c.log,
	}
}

// emitCSV atomically writes one result file when -csv is set, so an
// interrupted campaign never leaves a torn CSV over a complete one.
func (c runConfig) emitCSV(name string, write func(w io.Writer) error) error {
	if c.csvDir == "" {
		return nil
	}
	return durable.WriteAtomic(filepath.Join(c.csvDir, name), c.faults, write)
}

func runAll(ctx context.Context, cfg runConfig) error {
	for _, t := range []string{"1", "2", "3", "4", "5", "harmony"} {
		if err := runTable(ctx, cfg, t); err != nil {
			return err
		}
		fmt.Println()
	}
	for _, f := range []string{"1", "2", "3", "minsup"} {
		if err := runFigure(ctx, cfg, f); err != nil {
			return err
		}
		fmt.Println()
	}
	return runAblations(ctx, cfg)
}

func runTable(ctx context.Context, cfg runConfig, table string) error {
	sp := cfg.obs.Start("table").Attr("table", table).Attr("folds", cfg.folds)
	defer sp.End()
	proto := cfg.protocol()
	switch table {
	case "1":
		rows, err := experiments.RunTable1(ctx, datagen.Table1Names(), proto)
		if err != nil {
			return err
		}
		experiments.WriteTable1(os.Stdout, rows)
		if err := cfg.emitCSV("table1.csv", func(w io.Writer) error { return experiments.Table1CSV(w, rows) }); err != nil {
			return err
		}
	case "2":
		rows, err := experiments.RunTable2(ctx, datagen.Table1Names(), proto)
		if err != nil {
			return err
		}
		experiments.WriteTable2(os.Stdout, rows)
		if err := cfg.emitCSV("table2.csv", func(w io.Writer) error { return experiments.Table2CSV(w, rows) }); err != nil {
			return err
		}
	case "3", "4", "5":
		rows, err := experiments.RunScalability(ctx, scalabilityConfig(table, cfg.quick))
		if err != nil {
			return err
		}
		experiments.WriteScalability(os.Stdout, scalabilityTitle(table), rows)
		if err := cfg.emitCSV("table"+table+".csv", func(w io.Writer) error { return experiments.ScalabilityCSV(w, rows) }); err != nil {
			return err
		}
	case "harmony":
		sample := 0
		if cfg.quick {
			sample = 2000
		}
		// Each row prints as soon as its dataset completes: at full size
		// one dataset takes many minutes.
		experiments.WriteHarmonyHeader(os.Stdout)
		var rows []experiments.HarmonyRow
		for _, name := range []string{"waveform", "letter"} {
			row, err := experiments.RunHarmonyComparison(ctx, name, 0.1, sample)
			if err != nil {
				return err
			}
			experiments.WriteHarmonyRow(os.Stdout, row)
			rows = append(rows, row)
		}
		if err := cfg.emitCSV("harmony.csv", func(w io.Writer) error { return experiments.HarmonyCSV(w, rows) }); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown table %q", table)
	}
	return nil
}

func scalabilityConfig(table string, quick bool) experiments.ScalabilityConfig {
	var sc experiments.ScalabilityConfig
	switch table {
	case "3":
		sc = experiments.ScalabilityConfig{
			Dataset:     "chess",
			AbsSupports: []int{1, 3000, 2800, 2500, 2200, 2000},
		}
		if quick {
			sc.SampleRows = 1200
			sc.AbsSupports = []int{1, 1120, 1050, 940, 830, 750}
		}
	case "4":
		sc = experiments.ScalabilityConfig{
			Dataset:     "waveform",
			AbsSupports: []int{1, 200, 150, 100, 80},
		}
		if quick {
			sc.SampleRows = 1500
			sc.AbsSupports = []int{1, 60, 45, 30, 24}
		}
	case "5":
		sc = experiments.ScalabilityConfig{
			Dataset:     "letter",
			AbsSupports: []int{1, 4500, 4000, 3500, 3000},
		}
		if quick {
			sc.SampleRows = 4000
			sc.AbsSupports = []int{1, 900, 800, 700, 600}
		}
	}
	return sc
}

func scalabilityTitle(table string) string {
	switch table {
	case "3":
		return "Table 3. Accuracy & Time on Chess Data"
	case "4":
		return "Table 4. Accuracy & Time on Waveform Data"
	default:
		return "Table 5. Accuracy & Time on Letter Recognition Data"
	}
}

func runFigure(ctx context.Context, cfg runConfig, figure string) error {
	sp := cfg.obs.Start("figure").Attr("figure", figure)
	defer sp.End()
	trio := []string{"austral", "breast", "sonar"}
	switch figure {
	case "1":
		rows, err := experiments.RunFigure1(trio, 0.1)
		if err != nil {
			return err
		}
		experiments.WriteFigure1(os.Stdout, rows)
		if err := cfg.emitCSV("figure1.csv", func(w io.Writer) error { return experiments.Figure1CSV(w, rows) }); err != nil {
			return err
		}
	case "2":
		rows, err := experiments.RunFigure2(trio, 0.1, 20)
		if err != nil {
			return err
		}
		experiments.WriteBoundFigure(os.Stdout,
			"Figure 2. Information Gain and the Theoretical Upper Bound vs Support", "IG", rows)
		if err := cfg.emitCSV("figure2.csv", func(w io.Writer) error { return experiments.BoundFigureCSV(w, rows) }); err != nil {
			return err
		}
	case "3":
		rows, err := experiments.RunFigure3(trio, 0.1, 20)
		if err != nil {
			return err
		}
		experiments.WriteBoundFigure(os.Stdout,
			"Figure 3. Fisher Score and the Theoretical Upper Bound vs Support", "Fr", rows)
		if err := cfg.emitCSV("figure3.csv", func(w io.Writer) error { return experiments.BoundFigureCSV(w, rows) }); err != nil {
			return err
		}
	case "minsup":
		rows, err := experiments.RunMinSupSweep(ctx, "austral",
			[]float64{0.5, 0.4, 0.3, 0.2, 0.15, 0.1, 0.07, 0.05}, cfg.protocol())
		if err != nil {
			return err
		}
		experiments.WriteMinSupSweep(os.Stdout, rows)
		if err := cfg.emitCSV("minsup_sweep.csv", func(w io.Writer) error { return experiments.MinSupSweepCSV(w, rows) }); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown figure %q", figure)
	}
	return nil
}

func runAblations(ctx context.Context, cfg runConfig) error {
	name := "austral"
	proto := cfg.protocol()
	type study struct {
		title string
		file  string
		run   func() ([]experiments.AblationRow, error)
	}
	studies := []study{
		{"Ablation: closed vs all frequent patterns", "ablation_closed.csv",
			func() ([]experiments.AblationRow, error) {
				return experiments.RunAblationClosedVsAll(ctx, name, 0.15, proto)
			}},
		{"Ablation: MMRFS vs top-k relevance", "ablation_redundancy.csv",
			func() ([]experiments.AblationRow, error) {
				return experiments.RunAblationRedundancy(ctx, name, 0.15, proto)
			}},
		{"Ablation: information gain vs Fisher relevance", "ablation_relevance.csv",
			func() ([]experiments.AblationRow, error) {
				return experiments.RunAblationRelevance(ctx, name, 0.15, proto)
			}},
		{"Ablation: MMRFS coverage δ", "ablation_coverage.csv",
			func() ([]experiments.AblationRow, error) {
				return experiments.RunAblationCoverage(ctx, name, 0.15, []int{1, 2, 3, 5, 10}, proto)
			}},
		{"Ablation: θ*(IG0) strategy vs hand-set min_sup", "ablation_minsup_strategy.csv",
			func() ([]experiments.AblationRow, error) {
				return experiments.RunAblationMinSupStrategy(ctx, name, []float64{0.4, 0.2, 0.1, 0.05}, proto)
			}},
	}
	for i, s := range studies {
		sp := cfg.obs.Start("ablation").Attr("study", s.file)
		rows, err := s.run()
		sp.End()
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
		}
		experiments.WriteAblation(os.Stdout, s.title, rows)
		if err := cfg.emitCSV(s.file, func(w io.Writer) error { return experiments.AblationCSV(w, rows) }); err != nil {
			return err
		}
	}
	return nil
}

// Command dfpc-mine mines discriminative frequent patterns from a
// dataset and prints them with their measures — the feature-generation
// and analysis half of the framework, without training a classifier.
//
// Usage:
//
//	dfpc-mine -data heart.csv -minsup 0.1 -top 25
//	dfpc-mine -dataset austral -minsup 0.1 -closed=false
//	dfpc-mine -lucs letter.D106.N20000.C26.num -minsup 0.2
//
// Output columns: support, relative support, information gain, Fisher
// score, the theoretical IG upper bound at the pattern's support, and
// the pattern itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"dfpc"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/durable"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
	"dfpc/internal/telemetry"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV dataset (class label in last column)")
		arffPath = flag.String("arff", "", "ARFF dataset (class attribute last)")
		lucsPath = flag.String("lucs", "", "LUCS-KDD DN transaction file")
		bundled  = flag.String("dataset", "", "bundled synthetic dataset name")
		seed     = flag.Int64("seed", 1, "seed for synthetic datasets")
		minSup   = flag.Float64("minsup", 0.1, "relative per-class minimum support")
		closed   = flag.Bool("closed", true, "mine closed patterns (the paper's choice); false mines all frequent patterns")
		maxLen   = flag.Int("maxlen", 5, "maximum pattern length")
		top      = flag.Int("top", 30, "print the top-N patterns by information gain")
		sortBy   = flag.String("sort", "ig", "ranking: ig, fisher, or support")
		verbose  = flag.Bool("verbose", false, "print a stage-timing tree and mining counters to stderr")
		reportTo = flag.String("report", "", "write a JSON RunReport of the mining run here")
		traceTo  = flag.String("tracejson", "", "write a Chrome trace_event JSON timeline here (open in ui.perfetto.dev)")

		timeout  = flag.Duration("timeout", 0, "wall-clock bound for the mining run (0 = unbounded)")
		onBudget = flag.String("on-budget", "fail", "pattern-budget policy: fail, or degrade (escalate min_sup and re-mine)")
		workers  = flag.Int("workers", 1, "worker goroutines for per-class mining (0 = all CPUs; the mined union is identical at any count)")

		checkpointTo = flag.String("checkpoint", "", "write per-class partition checkpoints to this directory (replaying any valid ones already there)")
		faultSpec    = flag.String("faults", "", "deterministic fault-injection spec: point:nth[:kind],... (testing aid)")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for probabilistic fault arms")
	)
	var prof obs.ProfileFlags
	prof.Register(flag.CommandLine)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfpc-mine:", err)
		os.Exit(1)
	}
	var ses *telemetry.Session
	fail := func(args ...any) {
		fmt.Fprintln(os.Stderr, append([]any{"dfpc-mine:"}, args...)...)
		ses.Close()
		stopProf()
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "dfpc-mine: profiling:", err)
		}
	}()

	var o *obs.Observer
	if *verbose || *reportTo != "" || *traceTo != "" || tf.NeedsObserver() {
		o = obs.New()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ses, err = tf.Start(ctx, "dfpc-mine", o, *verbose)
	if err != nil {
		fail(err)
	}
	defer ses.Close()
	o.SetLogger(ses.Log) // surface span-leak warnings
	if tf.DriftEnabled() {
		// The shared telemetry flag set carries the drift flags, but
		// mining emits no predictions to score against a baseline.
		ses.Log.Warn("-drift-warn/-drift-window have no effect: dfpc-mine produces no prediction stream")
	}

	var fr *faults.Registry
	if *faultSpec != "" {
		fr = faults.New(*faultSeed)
		if err := fr.Parse(*faultSpec); err != nil {
			fail(err)
		}
	}
	ses.SetFaults(fr)

	// First SIGINT/SIGTERM cancels mining gracefully (checkpoints and
	// journal intact); a second hard-exits with 130.
	ctx, stopSignals := telemetry.HandleSignals(ctx, ses.Log)
	defer stopSignals()

	switch *sortBy {
	case "ig", "fisher", "support":
	default:
		fail(fmt.Errorf("unknown -sort ranking %q (want ig, fisher, or support)", *sortBy))
	}

	sp := o.Start("load")
	d, err := load(*dataPath, *arffPath, *lucsPath, *bundled, *seed)
	sp.End()
	if err != nil {
		fail(err)
	}

	sp = o.Start("discretize").Attr("rows", d.NumRows())
	cat, err := discretize.FitApply(d, discretize.Options{})
	sp.End()
	if err != nil {
		fail(err)
	}
	sp = o.Start("encode")
	b, err := dataset.Encode(cat)
	if err != nil {
		sp.End()
		fail(err)
	}
	sp.Attr("items", b.NumItems()).End()
	usedSup := *minSup
	sp = o.Start("mine").Attr("min_sup", *minSup).Attr("closed", *closed)
	mopt := mining.PerClassOptions{
		MinSupport:  *minSup,
		Closed:      *closed,
		MaxLen:      *maxLen,
		MaxPatterns: 2_000_000,
		MinLen:      2,
		Guard:       guard.New(ctx, guard.Limits{}),
		Obs:         o,
		Log:         obs.StageLogger(ses.Log, "mine"),
		Workers:     parallel.Workers(*workers),
		Faults:      fr,
	}
	if *checkpointTo != "" {
		// The key binds partition checkpoints to everything that shapes
		// the per-class pattern streams (worker count excluded: the
		// mined union is identical at any count).
		key := fmt.Sprintf("dfpc-mine|%s|%d|%v|%v|%d|%d", d.Name, b.NumRows(),
			*minSup, *closed, *maxLen, mopt.MaxPatterns)
		ck, err := mining.NewFileCheckpoint(*checkpointTo, key, fr)
		if err != nil {
			fail(err)
		}
		mopt.Checkpoint = ck
	}
	var ps []mining.Pattern
	var degs []mining.Degradation
	switch strings.ToLower(*onBudget) {
	case "", "fail":
		ps, err = mining.MinePerClass(b, mopt)
	case "degrade":
		// Each escalation is logged as a WARN record by the adaptive
		// miner itself; degs feeds the journal below.
		ps, degs, usedSup, err = mining.MinePerClassAdaptive(b, mopt, mining.Backoff{})
	default:
		err = fmt.Errorf("unknown -on-budget policy %q (want fail or degrade)", *onBudget)
	}
	sp.Attr("patterns", len(ps)).End()
	if err != nil {
		if mopt.Checkpoint != nil {
			fmt.Fprintf(os.Stderr,
				"dfpc-mine: completed partitions checkpointed in %s; rerun with the same -checkpoint to resume\n",
				*checkpointTo)
		}
		fail(err)
	}

	n := b.NumRows()
	curve := buildBoundLookup(b.ClassCounts())
	type scored struct {
		p      mining.Pattern
		ig, fr float64
	}
	sp = o.Start("score").Attr("patterns", len(ps))
	qr := measures.NewQualityRecorder(o, b.ClassMasks)
	rows := make([]scored, len(ps))
	for i, p := range ps {
		cover := p.Cover()
		ig := measures.InfoGain(cover, b.ClassMasks)
		qr.Observe(ig, p.Support, p.Len())
		rows[i] = scored{
			p:  p,
			ig: ig,
			fr: measures.FisherScore(cover, b.ClassMasks),
		}
	}
	sp.End()
	sort.Slice(rows, func(i, j int) bool {
		switch *sortBy {
		case "fisher":
			return rows[i].fr > rows[j].fr
		case "support":
			return rows[i].p.Support > rows[j].p.Support
		default:
			return rows[i].ig > rows[j].ig
		}
	})

	fmt.Printf("dataset %s: %d rows, %d items, %d classes; mined %d patterns (min_sup %.3f, closed=%v)\n\n",
		d.Name, n, b.NumItems(), b.NumClasses(), len(ps), usedSup, *closed)
	fmt.Printf("%7s %7s %8s %8s %8s  %s\n", "support", "θ", "IG", "Fisher", "IG_ub", "pattern")
	limit := *top
	if limit > len(rows) {
		limit = len(rows)
	}
	for _, r := range rows[:limit] {
		theta := float64(r.p.Support) / float64(n)
		fisher := fmt.Sprintf("%8.4f", r.fr)
		if math.IsInf(r.fr, 1) {
			fisher = fmt.Sprintf("%8s", "+Inf")
		}
		var names []string
		for _, it := range r.p.Items {
			names = append(names, b.Space.ItemName(int(it)))
		}
		fmt.Printf("%7d %7.3f %8.4f %s %8.4f  %s\n",
			r.p.Support, theta, r.ig, fisher, curve(r.p.Support), strings.Join(names, " ∧ "))
	}

	var rep *obs.RunReport
	if o != nil {
		rep = o.Report(d.Name)
		ses.AddRun(rep)
		if *verbose {
			fmt.Fprintln(os.Stderr)
			rep.WriteTree(os.Stderr)
		}
		if *reportTo != "" {
			if err := durable.WriteAtomic(*reportTo, fr, rep.WriteJSON); err != nil {
				fail(err)
			}
			ses.Log.Info("run report written", "path", *reportTo)
		}
		if *traceTo != "" {
			if err := durable.WriteAtomic(*traceTo, fr, rep.WriteTrace); err != nil {
				fail(err)
			}
			ses.Log.Info("trace written", "path", *traceTo)
		}
	}
	warnings := make([]string, 0, len(degs))
	for _, dg := range degs {
		warnings = append(warnings, dg.String())
	}
	ses.Journal(telemetry.Record{
		Kind:    "mine",
		Dataset: d.Name,
		Config: map[string]any{
			"min_sup": usedSup,
			"closed":  *closed,
			"max_len": *maxLen,
		},
		Stages:   telemetry.StagesFromReport(rep),
		Warnings: warnings,
	})
}

// buildBoundLookup returns a function mapping absolute support to the
// IG upper bound under the dataset's class distribution.
func buildBoundLookup(classCounts []int) func(int) float64 {
	curve := dfpc.IGBoundCurve(classCounts)
	return func(sup int) float64 {
		if sup < 1 || sup > len(curve) {
			return 0
		}
		return curve[sup-1].Bound
	}
}

func load(csvPath, arffPath, lucsPath, bundled string, seed int64) (*dfpc.Dataset, error) {
	count := 0
	for _, s := range []string{csvPath, arffPath, lucsPath, bundled} {
		if s != "" {
			count++
		}
	}
	if count != 1 {
		return nil, fmt.Errorf("specify exactly one of -data, -arff, -lucs, -dataset")
	}
	switch {
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dfpc.LoadCSV(f, strings.TrimSuffix(csvPath, ".csv"))
	case arffPath != "":
		f, err := os.Open(arffPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadARFF(f)
	case lucsPath != "":
		f, err := os.Open(lucsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadLUCS(f, lucsPath)
	default:
		return dfpc.Generate(bundled, seed)
	}
}

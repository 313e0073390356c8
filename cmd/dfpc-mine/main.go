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
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"dfpc"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
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
		workers  = flag.Int("workers", 1, "worker goroutines for per-class mining (0 = all CPUs; the mined union is identical at any count)")

		checkpointTo = flag.String("checkpoint", "", "write per-class partition checkpoints to this directory (replaying any valid ones already there)")
	)
	var tf telemetry.Flags
	tf.Register(flag.CommandLine)
	flag.Parse()

	ctx, ses, err := tf.Start("dfpc-mine")
	if err != nil {
		ses.Fail(err)
	}
	defer ses.Close()
	o := ses.Obs

	switch *sortBy {
	case "ig", "fisher", "support":
	default:
		ses.Fail(fmt.Errorf("unknown -sort ranking %q (want ig, fisher, or support)", *sortBy))
	}

	sp := o.Start("load")
	d, err := load(*dataPath, *arffPath, *lucsPath, *bundled, *seed)
	sp.End()
	if err != nil {
		ses.Fail(err)
	}

	sp = o.Start("discretize").Attr("rows", d.NumRows())
	cat, err := discretize.FitApply(d, discretize.Options{})
	sp.End()
	if err != nil {
		ses.Fail(err)
	}
	sp = o.Start("encode")
	b, err := dataset.Encode(cat)
	if err != nil {
		sp.End()
		ses.Fail(err)
	}
	sp.Attr("items", b.NumItems()).End()
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
		Faults:      ses.Faults,
	}
	if *checkpointTo != "" {
		// The key binds partition checkpoints to everything that shapes
		// the per-class pattern streams (worker count excluded: the
		// mined union is identical at any count).
		key := fmt.Sprintf("dfpc-mine|%s|%d|%v|%v|%d|%d", d.Name, b.NumRows(),
			*minSup, *closed, *maxLen, mopt.MaxPatterns)
		ck, err := mining.NewFileCheckpoint(*checkpointTo, key, ses.Faults)
		if err != nil {
			ses.Fail(err)
		}
		mopt.Checkpoint = ck
	}
	ps, err := mining.MinePerClass(b, mopt)
	sp.Attr("patterns", len(ps)).End()
	if err != nil {
		if mopt.Checkpoint != nil {
			fmt.Fprintf(os.Stderr,
				"dfpc-mine: completed partitions checkpointed in %s; rerun with the same -checkpoint to resume\n",
				*checkpointTo)
		}
		ses.Fail(err)
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
		d.Name, n, b.NumItems(), b.NumClasses(), len(ps), *minSup, *closed)
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

	if err := ses.Finish(d.Name, telemetry.Record{
		Kind:    "mine",
		Dataset: d.Name,
		Config: map[string]any{
			"min_sup": *minSup,
			"closed":  *closed,
			"max_len": *maxLen,
		},
	}); err != nil {
		ses.Fail(err)
	}
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

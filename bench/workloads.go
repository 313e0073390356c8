package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dfpc"
)

// dataSeed fixes every bundled dataset's draw, its sample and its
// train/test split, so every fit of a workload does the same work in
// every run. The workloads stand in for the paper's fixed UCI files;
// --seed draws the rows that predict requests send. Letting --seed
// redraw the data moved one Chess fit between 1.3 s and 3.7 s, and
// letting it pick the split doubled the run-to-run spread of the
// predict latencies, past any usable bound.
const dataSeed = 1

const (
	testFrac   = 0.2  // held-out share of the split (80/20)
	batchRows  = 1024 // rows per bulk PredictInto call
	blockReqs  = 1000 // batch-1 requests per latency block
	setupReps  = 31   // back-to-back set-ups per run; setup_s is their median
	refSeconds = 20   // the --seconds a workload's repetition counts are set for
)

// part is one dataset of a workload.
type part struct {
	dataset string
	sample  int // rows kept by a fixed stratified sample; 0 keeps all
}

// workload is one input set of the benchmark. Every workload fits
// Pat_FS (single items plus MMRFS-selected closed patterns) at
// workers=1.
//
// A run's length is set by repetition counts, never by the clock, so
// two commits measured with the same arguments do identical work. The
// counts are those of a --seconds 20 run, sized so that it takes about
// that long on a 2-vCPU machine; --seconds scales them (see reps).
type workload struct {
	name    string
	why     string
	parts   []part
	learner dfpc.Learner
	minSup  float64
	bulk    int     // bulk batches per part in each predict round
	floor   float64 // least pooled held-out accuracy a fit may reach
	fits    int     // fit units of an end-to-end run
	rounds  int     // predict rounds of an end-to-end run
	traced  int     // fit units of a traced run (each fits three times)
}

var workloads = []*workload{
	{
		name:    "uci-svm",
		why:     "Table 1 user on three small UCI-shaped sets: SMO, mining and MMRFS share fit; SV scoring dominates a cheap request",
		parts:   []part{{"austral", 0}, {"breast", 0}, {"heart", 0}},
		learner: dfpc.SVM, minSup: 0.15, bulk: 4, floor: 0.8,
		fits: 90, rounds: 60, traced: 30,
	},
	{
		name:    "chess-dense",
		why:     "Table 3 pattern explosion: ~12k closed patterns, FPClose and MMRFS dominate fit; two classes keep scoring cheap",
		parts:   []part{{"chess", 1000}},
		learner: dfpc.SVM, minSup: 0.72, bulk: 3, floor: 0.95,
		fits: 35, rounds: 150, traced: 10,
	},
	{
		name:    "letter-ovo",
		why:     "Table 5 many-class case: 325 one-vs-one pairs make SV scoring dominate the baseline pass of fit and every request",
		parts:   []part{{"letter", 300}},
		learner: dfpc.SVM, minSup: 0.2, bulk: 1, floor: 0.5,
		fits: 8, rounds: 10, traced: 12,
	},
	{
		name:    "waveform-c45",
		why:     "Table 4 data with Table 2's tree: MMRFS dominates fit; requests are cheap tree walks set by row encoding and trie matching",
		parts:   []part{{"waveform", 1500}},
		learner: dfpc.C45, minSup: 0.07, bulk: 3, floor: 0.7,
		fits: 40, rounds: 500, traced: 11,
	},
}

// reps scales a repetition count set for a --seconds 20 run to the
// given --seconds, keeping at least one repetition.
func reps(n int, seconds float64) int {
	return max(1, int(math.Round(float64(n)*seconds/refSeconds)))
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// split is one part's inputs: its dataset, the stratified train/test
// split, and the held-out rows the predict phase sends, drawn with
// replacement from the seed: one bulk batch, and this part's share of
// a latency block (request j of a block goes to part j mod parts).
type split struct {
	d           *dfpc.Dataset
	train, test []int
	bulk, block []int
}

// setUp generates the workload's inputs; it is the work timed as
// setup_s.
func (w *workload) setUp(seed int64) ([]split, error) {
	out := make([]split, len(w.parts))
	r := rand.New(rand.NewPCG(uint64(seed), dataSeed))
	for i, p := range w.parts {
		d, err := dfpc.Generate(p.dataset, dataSeed)
		if err != nil {
			return nil, err
		}
		if p.sample > 0 && p.sample < d.NumRows() {
			_, keep, err := dfpc.TrainTestSplit(d, float64(p.sample)/float64(d.NumRows()), dataSeed)
			if err != nil {
				return nil, fmt.Errorf("sample %s: %w", p.dataset, err)
			}
			d = d.Subset(keep)
		}
		train, test, err := dfpc.TrainTestSplit(d, testFrac, dataSeed)
		if err != nil {
			return nil, fmt.Errorf("split %s: %w", p.dataset, err)
		}
		s := split{d: d, train: train, test: test,
			bulk: make([]int, batchRows), block: make([]int, (blockReqs-i+len(w.parts)-1)/len(w.parts))}
		for _, rows := range [][]int{s.bulk, s.block} {
			for j := range rows {
				rows[j] = test[r.IntN(len(test))]
			}
		}
		out[i] = s
	}
	return out, nil
}

// newClassifier builds the workload's classifier through the public API.
func (w *workload) newClassifier() *dfpc.Classifier {
	return dfpc.NewClassifier(dfpc.PatFS, w.learner, dfpc.WithMinSupport(w.minSup), dfpc.WithWorkers(1))
}

package dfpc

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dfpc/internal/obs"
)

// The parallel execution layer's contract (internal/parallel, threaded
// through mining, MMRFS, SVM, and the CV harness) is that the worker
// count is invisible in every result: same selected patterns, same
// predictions, same fold accuracies. This suite pins the contract end
// to end on two datasets; check.sh runs it under the race detector.

// fitSignature fits one classifier and captures everything the worker
// count could plausibly perturb: the selected pattern features, the
// mined/selected counts, and the predictions on a held-out split.
type fitSignature struct {
	patterns    []string
	minedCount  int
	featCount   int
	predictions []int
	// matcherBytes is the gob encoding of the compiled pattern-matching
	// trie. Compile sorts patterns lexicographically before building, so
	// the trie must come out byte-identical no matter how many workers
	// mined and selected the patterns feeding it.
	matcherBytes []byte
}

func fitOnce(t *testing.T, d *Dataset, workers int) fitSignature {
	t.Helper()
	train, test, err := TrainTestSplit(d, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, SVM,
		WithMinSupport(0.15), WithWorkers(workers))
	if err := clf.Fit(d, train); err != nil {
		t.Fatalf("workers=%d: fit: %v", workers, err)
	}
	pred, err := predict(clf, d, test)
	if err != nil {
		t.Fatalf("workers=%d: predict: %v", workers, err)
	}
	var sig fitSignature
	for _, fr := range clf.Explain() {
		sig.patterns = append(sig.patterns,
			fmt.Sprintf("%s|%d|%.9f", fr.Name, fr.Support, fr.InfoGain))
	}
	sig.minedCount = clf.Stats.MinedCount
	sig.featCount = clf.Stats.FeatureCount
	sig.predictions = pred
	if m := clf.Matcher(); m != nil {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			t.Fatalf("workers=%d: encode matcher: %v", workers, err)
		}
		sig.matcherBytes = buf.Bytes()
	}
	return sig
}

// TestDeterminismAcrossWorkerCounts: fitted model, selected patterns,
// and predictions are byte-identical at workers 1, 2, and 8.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	for _, name := range []string{"austral", "breast"} {
		t.Run(name, func(t *testing.T) {
			d, err := Generate(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			base := fitOnce(t, d, 1)
			if len(base.patterns) == 0 {
				t.Fatal("baseline selected no patterns; test would be vacuous")
			}
			if len(base.matcherBytes) == 0 {
				t.Fatal("baseline compiled no matcher; test would be vacuous")
			}
			for _, w := range []int{2, 8} {
				got := fitOnce(t, d, w)
				if !reflect.DeepEqual(got.patterns, base.patterns) {
					t.Errorf("workers=%d: selected patterns diverge from sequential", w)
				}
				if got.minedCount != base.minedCount || got.featCount != base.featCount {
					t.Errorf("workers=%d: stats (%d mined, %d selected) != (%d, %d)",
						w, got.minedCount, got.featCount, base.minedCount, base.featCount)
				}
				if !reflect.DeepEqual(got.predictions, base.predictions) {
					t.Errorf("workers=%d: predictions diverge from sequential", w)
				}
				if !bytes.Equal(got.matcherBytes, base.matcherBytes) {
					t.Errorf("workers=%d: compiled matcher bytes diverge from sequential", w)
				}
			}
		})
	}
}

// TestDeterminismCrossValidation: fold accuracies (values AND order)
// and summary statistics are identical at workers 1, 2, and 8 when the
// folds themselves also run concurrently.
func TestDeterminismCrossValidation(t *testing.T) {
	for _, name := range []string{"austral", "breast"} {
		t.Run(name, func(t *testing.T) {
			d, err := Generate(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			run := func(w int) *CVResult {
				clf := NewClassifier(PatFS, SVM,
					WithMinSupport(0.15), WithWorkers(w))
				res, err := CrossValidateContext(nil, clf, d, 3, 1, CVOptions{Workers: Workers(w)})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				return res
			}
			base := run(1)
			for _, w := range []int{2, 8} {
				got := run(w)
				if !reflect.DeepEqual(got.FoldAccuracies, base.FoldAccuracies) {
					t.Errorf("workers=%d: fold accuracies %v != %v", w, got.FoldAccuracies, base.FoldAccuracies)
				}
				if got.Mean != base.Mean || got.Std != base.Std {
					t.Errorf("workers=%d: mean/std (%v, %v) != (%v, %v)",
						w, got.Mean, got.Std, base.Mean, base.Std)
				}
			}
		})
	}
}

// TestDeterminismCVSpanTree: every fold's pipeline spans nest under
// that fold's cv-fold span, in the same tree whether folds run on one
// worker or four, and the classifier's own observer is back in place
// after the run.
func TestDeterminismCVSpanTree(t *testing.T) {
	d, err := Generate("breast", 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w int) map[string]string {
		o := NewObserver()
		clf := NewClassifier(PatFS, SVM, WithMinSupport(0.15), WithWorkers(1), WithObserver(o))
		if _, err := CrossValidateContext(context.Background(), clf, d, 3, 1, CVOptions{Obs: o, Workers: Workers(w)}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if clf.Observer() != o {
			t.Fatalf("workers=%d: the classifier's observer was not restored after CV", w)
		}
		trees := map[string]string{}
		for _, sp := range o.Report("cv").Spans {
			if sp.Name != "cv-fold" {
				t.Fatalf("workers=%d: top-level span %q, want only cv-fold", w, sp.Name)
			}
			fold := ""
			for _, a := range sp.Attrs {
				if a.Key == "fold" {
					fold = a.Value
				}
			}
			var b strings.Builder
			for _, c := range sp.Children {
				writeSpanNames(&b, c, 0)
			}
			if b.Len() == 0 {
				t.Fatalf("workers=%d: fold %s recorded no pipeline spans under its cv-fold span", w, fold)
			}
			trees[fold] = b.String()
		}
		if len(trees) != 3 {
			t.Fatalf("workers=%d: %d distinct cv-fold spans, want 3", w, len(trees))
		}
		return trees
	}
	base := run(1)
	if got := run(4); !reflect.DeepEqual(got, base) {
		t.Fatalf("fold span trees differ between workers 4 and 1:\n%v\nvs\n%v", got, base)
	}
}

// writeSpanNames renders a span's name tree, one indented name a line.
func writeSpanNames(b *strings.Builder, sp *obs.SpanReport, depth int) {
	fmt.Fprintf(b, "%s%s\n", strings.Repeat("  ", depth), sp.Name)
	for _, c := range sp.Children {
		writeSpanNames(b, c, depth+1)
	}
}

// TestDeterminismUnderLiveGuard: with a cancellable context and a
// stage timeout, every stage polls a live guard, and the
// parallel regions (per-class mining, one-vs-one SMO) must each poll
// their own fork, which -race checks. The saved model is
// byte-identical at workers 1, 2, and 8, and its predictions and
// selected patterns equal a fit whose guards are all nil.
func TestDeterminismUnderLiveGuard(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		learner Learner
	}{
		{"vehicle", SVM}, // 4 classes: 6 one-vs-one SMO pairs
		{"glass", C45},
	} {
		t.Run(tc.dataset+"/"+tc.learner.String(), func(t *testing.T) {
			d, err := Generate(tc.dataset, 1)
			if err != nil {
				t.Fatal(err)
			}
			if d.NumClasses() < 3 {
				t.Fatalf("%s has %d classes; the test needs a multi-class set", tc.dataset, d.NumClasses())
			}
			train, test, err := TrainTestSplit(d, 0.3, 7)
			if err != nil {
				t.Fatal(err)
			}
			ref := NewClassifier(PatFS, tc.learner, WithMinSupport(0.1))
			if err := ref.Fit(d, train); err != nil {
				t.Fatalf("background fit: %v", err)
			}
			refPred, err := predict(ref, d, test)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Explain()) == 0 {
				t.Fatal("reference selected no patterns; test would be vacuous")
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var base []byte
			for _, w := range []int{1, 2, 8} {
				clf := NewClassifier(PatFS, tc.learner, WithMinSupport(0.1), WithWorkers(w),
					WithStageTimeout(time.Hour))
				if err := clf.FitContext(ctx, d, train); err != nil {
					t.Fatalf("workers=%d: fit: %v", w, err)
				}
				var buf bytes.Buffer
				if err := SaveModel(&buf, clf); err != nil {
					t.Fatalf("workers=%d: save: %v", w, err)
				}
				if base == nil {
					base = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), base) {
					t.Errorf("workers=%d: saved model bytes diverge from workers=1", w)
				}
				pred := make([]int, len(test))
				if err := clf.PredictBatch(ctx, d, test, pred); err != nil {
					t.Fatalf("workers=%d: predict: %v", w, err)
				}
				if !reflect.DeepEqual(pred, refPred) {
					t.Errorf("workers=%d: predictions diverge from the background-context fit", w)
				}
				if !reflect.DeepEqual(clf.Explain(), ref.Explain()) {
					t.Errorf("workers=%d: selected patterns diverge from the background-context fit", w)
				}
			}
		})
	}
}

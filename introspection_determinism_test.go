package dfpc

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// The introspection layer (per-depth miner counters, IG-quality
// histograms, bound-tightness stats, the MMRFS audit trail, and
// per-prediction explanations) must not perturb results, and its own
// records must themselves be deterministic at any worker count: all
// sinks are order-insensitive shared-registry recorders and the audit
// is produced by the sequential greedy loop.

// introspectionSignature captures everything the worker count could
// plausibly perturb in the introspection output.
type introspectionSignature struct {
	counters    map[string]int64
	histCounts  map[string]int64
	audit       []string
	predictions []int
	explains    []PredictionExplanation
}

// introspectionFamily reports whether a metric belongs to the
// introspection namespace pinned by this suite.
func introspectionFamily(name string) bool {
	for _, p := range []string{"mine.depth", "mine.ig_by_", "measures.ig_bound", "mmrfs."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func fitIntrospected(t *testing.T, d *Dataset, workers int) introspectionSignature {
	t.Helper()
	train, test, err := TrainTestSplit(d, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := NewObserver()
	clf := NewClassifier(PatFS, SVM,
		WithMinSupport(0.15), WithWorkers(workers), WithObserver(o))
	if err := clf.Fit(d, train); err != nil {
		t.Fatalf("workers=%d: fit: %v", workers, err)
	}
	pred, err := predict(clf, d, test)
	if err != nil {
		t.Fatalf("workers=%d: predict: %v", workers, err)
	}
	exps, err := clf.PredictExplain(context.Background(), d, test[:10])
	if err != nil {
		t.Fatalf("workers=%d: explain: %v", workers, err)
	}

	r := o.Report("introspect")
	sig := introspectionSignature{
		counters:    map[string]int64{},
		histCounts:  map[string]int64{},
		predictions: pred,
		explains:    exps,
	}
	for name, v := range r.Counters {
		if introspectionFamily(name) {
			sig.counters[name] = v
		}
	}
	for name, h := range r.Histograms {
		if introspectionFamily(name) {
			sig.histCounts[name] = h.Count
		}
	}
	// Serialize audit entries fully — iteration, candidate, Eq. 10
	// quantities, and the decision — so any drift fails DeepEqual.
	for _, e := range clf.Stats.SelectionAudit {
		sig.audit = append(sig.audit, fmt.Sprintf("%+v", e))
	}
	return sig
}

func TestDeterminismWithIntrospection(t *testing.T) {
	d, err := Generate("austral", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := fitIntrospected(t, d, 1)
	if len(base.counters) == 0 {
		t.Fatal("no introspection counters recorded; test would be vacuous")
	}
	if len(base.audit) == 0 {
		t.Fatal("no selection audit recorded; test would be vacuous")
	}
	for _, w := range []int{2, 8} {
		got := fitIntrospected(t, d, w)
		if !reflect.DeepEqual(got.counters, base.counters) {
			t.Errorf("workers=%d: introspection counters diverge:\n got %v\nwant %v", w, got.counters, base.counters)
		}
		if !reflect.DeepEqual(got.histCounts, base.histCounts) {
			t.Errorf("workers=%d: histogram sample counts diverge:\n got %v\nwant %v", w, got.histCounts, base.histCounts)
		}
		if !reflect.DeepEqual(got.audit, base.audit) {
			t.Errorf("workers=%d: MMRFS audit trail diverges", w)
		}
		if !reflect.DeepEqual(got.predictions, base.predictions) {
			t.Errorf("workers=%d: predictions diverge under introspection", w)
		}
		if !reflect.DeepEqual(got.explains, base.explains) {
			t.Errorf("workers=%d: per-prediction explanations diverge", w)
		}
	}

	// Introspection must also be inert: the plain fit signature is
	// unchanged by attaching an observer.
	plain := fitOnce(t, d, 1)
	if !reflect.DeepEqual(plain.predictions, base.predictions) {
		t.Error("attaching an observer changed the predictions")
	}
}

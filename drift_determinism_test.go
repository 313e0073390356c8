package dfpc

// Drift tracking rides the predict path, so it inherits the repo-wide
// determinism contract: the fit-time baseline, the live sketch state,
// and the /drift JSON a debug server renders must all be byte-identical
// at any worker count. check.sh runs this suite under -race, which also
// makes the live-server test a concurrency pin: scrapes race a Fit on a
// shared observer and tracked predictions without tripping the detector.

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
	"dfpc/internal/telemetry"
)

// driftSignature captures everything the worker count could plausibly
// perturb in the drift layer, each as raw bytes.
type driftSignature struct {
	baseline []byte // gob of the fit-time Baseline
	sketch   []byte // gob of the live SketchSnapshot after predicting
	report   []byte // json of Tracker.Report
	served   []byte // body of GET /drift from a live debug server
}

func driftOnce(t *testing.T, d *Dataset, workers int) driftSignature {
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
	tr := modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 16, Windows: 4})
	clf.SetDriftTracker(tr)
	if _, err := predict(clf, d, test); err != nil {
		t.Fatalf("workers=%d: predict: %v", workers, err)
	}

	var sig driftSignature
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(clf.Baseline()); err != nil {
		t.Fatal(err)
	}
	sig.baseline = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	snap := tr.SketchSnapshot()
	if snap.Total == 0 {
		t.Fatalf("workers=%d: sketch observed nothing; test would be vacuous", workers)
	}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	sig.sketch = append([]byte(nil), buf.Bytes()...)
	rep, err := tr.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dimensions) != 5 || rep.Predictions == 0 {
		t.Fatalf("workers=%d: degenerate report: %+v", workers, rep)
	}
	if sig.report, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}

	s := telemetry.NewServer(telemetry.ServerConfig{Addr: "127.0.0.1:0", Drift: tr})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatalf("workers=%d: server start: %v", workers, err)
	}
	defer func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	}()
	resp, err := http.Get("http://" + s.Addr() + "/drift")
	if err != nil {
		t.Fatalf("workers=%d: GET /drift: %v", workers, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers=%d: /drift status %d", workers, resp.StatusCode)
	}
	if sig.served, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestDriftDeterminismAcrossWorkerCounts: baseline bytes, sketch state,
// the report JSON, and the served /drift body are byte-identical at
// workers 1, 2, and 8.
func TestDriftDeterminismAcrossWorkerCounts(t *testing.T) {
	d, err := Generate("austral", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := driftOnce(t, d, 1)
	for _, w := range []int{2, 8} {
		got := driftOnce(t, d, w)
		if !bytes.Equal(got.baseline, base.baseline) {
			t.Errorf("workers=%d: baseline bytes diverge from sequential", w)
		}
		if !bytes.Equal(got.sketch, base.sketch) {
			t.Errorf("workers=%d: sketch state diverges from sequential", w)
		}
		if !bytes.Equal(got.report, base.report) {
			t.Errorf("workers=%d: drift report JSON diverges:\n--- want ---\n%s\n--- got ---\n%s",
				w, base.report, got.report)
		}
		if !bytes.Equal(got.served, base.served) {
			t.Errorf("workers=%d: served /drift body diverges from sequential", w)
		}
	}
}

// TestDriftLiveServerUnderConcurrentFit scrapes /drift and /metrics
// while a Fit runs on the same observer and tracked predictions keep
// streaming — the debug server's view must stay coherent mid-training.
func TestDriftLiveServerUnderConcurrentFit(t *testing.T) {
	d, err := Generate("austral", 1)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := TrainTestSplit(d, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.15), WithObserver(o))
	if err := clf.Fit(d, train); err != nil {
		t.Fatal(err)
	}
	tr := modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 8, Obs: o})
	clf.SetDriftTracker(tr)

	s := telemetry.NewServer(telemetry.ServerConfig{Addr: "127.0.0.1:0", Obs: o, Drift: tr})
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Start(ctx); err != nil {
		cancel()
		t.Fatalf("server start: %v", err)
	}
	defer func() {
		cancel()
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		_ = s.Shutdown(sctx)
	}()

	// Concurrent trainer: a second classifier refitting on the shared
	// observer while the scrapes below are in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			other := NewClassifier(PatFS, SVM, WithMinSupport(0.15), WithObserver(o))
			if err := other.Fit(d, train); err != nil {
				t.Errorf("concurrent fit: %v", err)
				return
			}
		}
	}()

	base := "http://" + s.Addr()
	for i := 0; i < 5; i++ {
		if _, err := predict(clf, d, test); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(base + "/drift")
		if err != nil {
			t.Fatalf("GET /drift: %v", err)
		}
		var rep modelobs.DriftReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			resp.Body.Close()
			t.Fatalf("decode /drift: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/drift status %d", resp.StatusCode)
		}
		if !rep.Bound || rep.Predictions != int64((i+1)*len(test)) {
			t.Fatalf("scrape %d: bound=%v predictions=%d, want %d",
				i, rep.Bound, rep.Predictions, (i+1)*len(test))
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"dfpc_drift_predictions_total", "dfpc_drift_windows_total", "dfpc_drift_psi_class_mix"} {
		if !strings.Contains(string(body), fam) {
			t.Errorf("/metrics missing %s", fam)
		}
	}
	wg.Wait()
}

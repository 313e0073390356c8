package dfpc

// The chaos suite is the robustness layer's integration pin: every
// registered fault point is swept with an injection and the only
// acceptable outcomes are sentinel errors (never panics, never
// non-Is-able failures), no goroutine leaks, no torn artifact files,
// and resume runs byte-identical to uninterrupted ones.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"io"

	"dfpc/internal/durable"
	"dfpc/internal/eval"
	"dfpc/internal/faults"
	"dfpc/internal/modelobs"
	"dfpc/internal/parallel"
	"dfpc/internal/telemetry"
)

// saveModelAtomic is the production save path: the model envelope
// streamed through durable's temp-file + fsync + rename sequence.
func saveModelAtomic(path string, clf *Classifier, r *faults.Registry) error {
	return durable.WriteAtomic(path, r, func(w io.Writer) error {
		return SaveModel(w, clf)
	})
}

// chaosLeakCheck fails the test if the goroutine count has not
// returned to its starting value shortly after all cleanups ran.
func chaosLeakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// chaosRun drives one end-to-end pass that traverses every registered
// fault point: a checkpointed 2-fold CV (eval.fold, checkpoint.write,
// all five fs points, core.*, mine.*, featsel, and the learner), a
// standalone predict, and a journal append. It returns the first error.
func chaosRun(t *testing.T, r *faults.Registry, learner Learner) error {
	t.Helper()
	d, err := Generate("labor", 3)
	if err != nil {
		t.Fatal(err)
	}
	clf := NewClassifier(PatFS, learner, WithMinSupport(0.3), WithCoverage(2))
	clf.SetFaults(r)
	ck, err := eval.NewCheckpointer(t.TempDir(), "chaos", r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CrossValidateContext(context.Background(), clf, d, 2, 1, CVOptions{
		Faults:     r,
		Checkpoint: ck,
	}); err != nil {
		return err
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	// Drift-tracked predict plus a report snapshot (modelobs.snapshot).
	tr := modelobs.NewTracker(modelobs.TrackerConfig{WindowSize: 8})
	tr.SetFaults(r)
	clf.SetDriftTracker(tr)
	if _, err := predict(clf, d, rows); err != nil {
		return err
	}
	if _, err := tr.Report(); err != nil {
		return err
	}
	j, err := telemetry.OpenJournal(filepath.Join(t.TempDir(), "j.jsonl"), "chaos", "rid")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetFaults(r)
	return j.Append(telemetry.Record{Kind: "cv", Dataset: d.Name})
}

// TestChaosSentinelSweep arms an injected error at every registered
// point in turn and demands the failure (when the driver fails at all)
// is errors.Is-reachable as faults.ErrInjected — never a panic, never
// an opaque error — and that every point actually fired, proving the
// sweep exercises the whole surface.
func TestChaosSentinelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite")
	}
	chaosLeakCheck(t)
	for _, point := range faults.Known() {
		point := point
		t.Run(point, func(t *testing.T) {
			learner := SVM
			if point == faults.C45Build {
				learner = C45
			}
			r := faults.New(1)
			r.Arm(point, 1, faults.ErrInjected)
			err := chaosRun(t, r, learner)
			if r.Hits(point) == 0 {
				t.Fatalf("point %s never fired: the sweep does not cover it", point)
			}
			if err == nil {
				t.Fatalf("point %s fired but the run succeeded", point)
			}
			if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("point %s: error does not unwrap to ErrInjected: %v", point, err)
			}
		})
	}
}

// TestChaosKindsMapToGuardSentinels pins that injected cancellations
// and deadlines surface as the public guard sentinels, so callers'
// errors.Is handling is identical for real and injected failures.
func TestChaosKindsMapToGuardSentinels(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite")
	}
	chaosLeakCheck(t)
	cases := []struct {
		kind string
		want error
	}{
		{"canceled", ErrCanceled},
		{"deadline", ErrDeadline},
	}
	for _, tc := range cases {
		r := faults.New(1)
		if err := r.ArmKind(faults.CoreMine, 1, tc.kind); err != nil {
			t.Fatal(err)
		}
		err := chaosRun(t, r, SVM)
		if !errors.Is(err, tc.want) {
			t.Fatalf("kind %s: err = %v, want %v", tc.kind, err, tc.want)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("kind %s: injected failure not marked ErrInjected: %v", tc.kind, err)
		}
	}
}

// TestChaosPanicInjectionIsCaptured pins that a panic injected inside
// a parallel worker surfaces as an error, not a process crash.
func TestChaosPanicInjectionIsCaptured(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite")
	}
	chaosLeakCheck(t)
	d, err := Generate("labor", 3)
	if err != nil {
		t.Fatal(err)
	}
	r := faults.New(1)
	r.ArmPanic(faults.EvalFold, 1, "injected chaos panic")
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.3), WithCoverage(2))
	_, err = CrossValidateContext(context.Background(), clf, d, 2, 1, CVOptions{
		Faults:  r,
		Workers: parallel.Workers(2),
	})
	if err == nil {
		t.Fatal("injected panic did not fail the run")
	}
	if !strings.Contains(err.Error(), "injected chaos panic") {
		t.Fatalf("panic payload lost: %v", err)
	}
}

// TestChaosTornWriteLoop is the write-kill-reload pin: a model save
// killed at any fs fault point must leave either the previous complete
// artifact or no file — never a torn one — and must leave no temp
// litter behind. The survivor must load and predict identically.
func TestChaosTornWriteLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite")
	}
	chaosLeakCheck(t)
	d, err := Generate("labor", 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}
	clf := NewClassifier(PatFS, SVM, WithMinSupport(0.3), WithCoverage(2))
	if err := clf.Fit(d, rows); err != nil {
		t.Fatal(err)
	}
	want, err := predict(clf, d, rows)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "model.gob")
	f, err := os.Create(path) // baseline artifact, deliberately raw: the loop below injects against the durable path
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveModel(f, clf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	v1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	fsPoints := []string{faults.FSCreate, faults.FSWrite, faults.FSSync,
		faults.FSRename, faults.FSClose}
	for _, point := range fsPoints {
		for nth := uint64(1); nth <= 3; nth++ {
			r := faults.New(int64(nth))
			r.Arm(point, nth, faults.ErrInjected)
			err := saveModelAtomic(path, clf, r)
			if r.Hits(point) < nth {
				// The write finished before the nth hit; it must have
				// fully replaced the artifact.
				if err != nil {
					t.Fatalf("%s nth=%d: fewer hits than armed yet save failed: %v", point, nth, err)
				}
			} else if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("%s nth=%d: err = %v, want ErrInjected", point, nth, err)
			}
			got, readErr := os.ReadFile(path)
			if readErr != nil {
				t.Fatalf("%s nth=%d: artifact vanished: %v", point, nth, readErr)
			}
			if err != nil && !bytes.Equal(got, v1) {
				t.Fatalf("%s nth=%d: failed save altered the artifact", point, nth)
			}
			entries, _ := os.ReadDir(dir)
			if len(entries) != 1 {
				t.Fatalf("%s nth=%d: temp litter left in %s: %v", point, nth, dir, entries)
			}
			// Whatever survived must load and predict identically.
			loaded := mustLoadModel(t, path)
			pred, err := predict(loaded, d, rows)
			if err != nil {
				t.Fatalf("%s nth=%d: reload predict: %v", point, nth, err)
			}
			for i := range pred {
				if pred[i] != want[i] {
					t.Fatalf("%s nth=%d: prediction %d drifted after reload", point, nth, i)
				}
			}
			// Reset to the known-good artifact for the next round.
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func mustLoadModel(t *testing.T, path string) *Classifier {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	clf, err := LoadModel(f)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	return clf
}

// TestChaosCLIResumeByteIdentical is the end-to-end resume pin: the
// dfpc binary, interrupted by an injected fault and resumed from its
// checkpoints, prints byte-identical results (timing lines filtered)
// to an uninterrupted run — at 1, 2, and 8 workers.
func TestChaosCLIResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite: builds and runs the dfpc binary")
	}
	chaosLeakCheck(t)
	bin := filepath.Join(t.TempDir(), "dfpc")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dfpc")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	base := []string{"-dataset", "labor", "-folds", "4", "-minsup", "0.3"}

	clean := exec.Command(bin, base...)
	cleanOut, err := clean.Output()
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want := stripTimings(string(cleanOut))

	for _, workers := range []string{"1", "2", "8"} {
		ckDir := filepath.Join(t.TempDir(), "ck")
		interrupted := exec.Command(bin, append(append([]string{}, base...),
			"-workers", "1", "-checkpoint", ckDir, "-faults", "eval.fold:3")...)
		if out, err := interrupted.Output(); err == nil {
			t.Fatalf("workers=%s: interrupted run did not fail:\n%s", workers, out)
		}
		if entries, err := os.ReadDir(ckDir); err != nil || len(entries) == 0 {
			t.Fatalf("workers=%s: no checkpoints written (%v)", workers, err)
		}

		resumed := exec.Command(bin, append(append([]string{}, base...),
			"-workers", workers, "-checkpoint", ckDir)...)
		resumedOut, err := resumed.Output()
		if err != nil {
			t.Fatalf("workers=%s: resumed run failed: %v", workers, err)
		}
		if got := stripTimings(string(resumedOut)); got != want {
			t.Fatalf("workers=%s: resumed output differs from uninterrupted:\n--- want ---\n%s\n--- got ---\n%s",
				workers, want, got)
		}
	}
}

// stripTimings drops the wall-clock line — the only legitimately
// nondeterministic part of dfpc's stdout.
func stripTimings(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "train time") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

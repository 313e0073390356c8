package eval

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dfpc/internal/dataset"
	"dfpc/internal/faults"
	"dfpc/internal/parallel"
)

// fitCountingPipeline counts Fit calls and predicts the true label, so
// tests can tell executed folds from replayed ones. The counter is
// atomic because clones share it across concurrent folds.
type fitCountingPipeline struct{ fits atomic.Int64 }

func (p *fitCountingPipeline) FitContext(context.Context, *dataset.Dataset, []int) error {
	p.fits.Add(1)
	return nil
}

func (p *fitCountingPipeline) PredictBatch(_ context.Context, d *dataset.Dataset, rows []int, out []int) error {
	predictTruth(d, rows, out)
	return nil
}

func (p *fitCountingPipeline) CloneForCV() any { return p } // folds share the counter

func TestCheckpointRoundTrip(t *testing.T) {
	ck, err := NewCheckpointer(t.TempDir(), CVKey("austral", 5, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := foldOutcome{ran: true, acc: 0.8125, trainTime: 5 * time.Millisecond,
		testTime: time.Millisecond, elapsed: 6 * time.Millisecond}
	if err := ck.SaveFold(2, out); err != nil {
		t.Fatal(err)
	}
	got, ok := ck.LoadFold(2)
	if !ok {
		t.Fatal("saved fold did not load")
	}
	if got != out {
		t.Fatalf("loaded %+v, want %+v", got, out)
	}
	if _, ok := ck.LoadFold(3); ok {
		t.Fatal("unsaved fold loaded")
	}
	if done := ck.CompletedFolds(5); len(done) != 1 || done[0] != 2 {
		t.Fatalf("CompletedFolds = %v, want [2]", done)
	}
}

func TestCheckpointKeyMismatchIgnored(t *testing.T) {
	dir := t.TempDir()
	ck1, _ := NewCheckpointer(dir, CVKey("config-a"), nil)
	if err := ck1.SaveFold(0, foldOutcome{ran: true, acc: 1}); err != nil {
		t.Fatal(err)
	}
	ck2, _ := NewCheckpointer(dir, CVKey("config-b"), nil)
	if _, ok := ck2.LoadFold(0); ok {
		t.Fatal("checkpoint replayed under a different config key")
	}
}

func TestCheckpointCorruptionIgnored(t *testing.T) {
	dir := t.TempDir()
	ck, _ := NewCheckpointer(dir, "k", nil)
	if err := ck.SaveFold(0, foldOutcome{ran: true, acc: 0.5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "fold-0001.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn (truncated) checkpoint must be treated as absent.
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.LoadFold(0); ok {
		t.Fatal("torn checkpoint replayed")
	}
}

// TestResumeSkipsCheckpointedFolds pins the resume contract: an
// interrupted run's checkpoints replay on the next run, only the
// missing folds (plus the always-re-run final fold) execute, and the
// statistics equal an uninterrupted run's.
func TestResumeSkipsCheckpointedFolds(t *testing.T) {
	d := skewedDS(60)
	const k, seed = 5, 1
	key := CVKey("skewed", k, seed)

	baseline, err := CrossValidateContext(context.Background(), oraclePipeline{}, d, k, seed, CVOptions{})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir()
		ck, _ := NewCheckpointer(dir, key, nil)

		// First run: injected cancellation at fold 3 interrupts the run
		// after two folds checkpointed.
		fr := faults.New(1)
		fr.Arm(faults.EvalFold, 3, errors.New("simulated crash"))
		p1 := &fitCountingPipeline{}
		_, err := CrossValidateContext(context.Background(), p1, d, k, seed, CVOptions{
			Workers: parallel.Workers(1), Faults: fr, Checkpoint: ck,
		})
		if err == nil {
			t.Fatal("interrupted run did not fail")
		}

		// Second run resumes: folds 1-2 replay, folds 3-5 execute.
		p2 := &fitCountingPipeline{}
		res, err := CrossValidateContext(context.Background(), p2, d, k, seed, CVOptions{
			Workers: parallel.Workers(workers), Checkpoint: ck,
		})
		if err != nil {
			t.Fatalf("workers=%d: resume failed: %v", workers, err)
		}
		if p2.fits.Load() != 3 {
			t.Fatalf("workers=%d: resume executed %d folds, want 3", workers, p2.fits.Load())
		}
		if len(res.FoldAccuracies) != len(baseline.FoldAccuracies) {
			t.Fatalf("workers=%d: %d fold accuracies, want %d",
				workers, len(res.FoldAccuracies), len(baseline.FoldAccuracies))
		}
		for i := range res.FoldAccuracies {
			//vet:ignore floateq the resume contract is bit-identical replay, not approximate
			if res.FoldAccuracies[i] != baseline.FoldAccuracies[i] {
				t.Fatalf("workers=%d: fold %d accuracy %v != baseline %v",
					workers, i+1, res.FoldAccuracies[i], baseline.FoldAccuracies[i])
			}
		}
		//vet:ignore floateq the resume contract is bit-identical replay, not approximate
		if res.Mean != baseline.Mean || res.Std != baseline.Std {
			t.Fatalf("workers=%d: mean/std %v/%v != baseline %v/%v",
				workers, res.Mean, res.Std, baseline.Mean, baseline.Std)
		}

		// A third run replays everything but the final fold.
		p3 := &fitCountingPipeline{}
		if _, err := CrossValidateContext(context.Background(), p3, d, k, seed, CVOptions{
			Checkpoint: ck,
		}); err != nil {
			t.Fatal(err)
		}
		if p3.fits.Load() != 1 {
			t.Fatalf("fully-checkpointed run executed %d folds, want 1 (the final fold)", p3.fits.Load())
		}
	}
}

// TestCheckpointWriteFaultDegradesFold pins that an injected
// checkpoint.write failure surfaces as a fold error instead of being
// silently dropped.
func TestCheckpointWriteFaultDegradesFold(t *testing.T) {
	d := skewedDS(40)
	fr := faults.New(1)
	fr.Arm(faults.CheckpointWrite, 1, faults.ErrInjected)
	ck, _ := NewCheckpointer(t.TempDir(), "k", fr)
	_, err := CrossValidateContext(context.Background(), oraclePipeline{}, d, 4, 1, CVOptions{
		Checkpoint: ck, Faults: fr,
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
}

package mining

import (
	"errors"
	"testing"

	"dfpc/internal/faults"
	"dfpc/internal/parallel"
)

func TestPerClassCheckpointResume(t *testing.T) {
	b := twoClassDS()
	opt := PerClassOptions{MinSupport: 0.4, Closed: true, MinLen: 2}
	want, err := MinePerClass(b, opt)
	if err != nil {
		t.Fatal(err)
	}

	// First run is interrupted after the first partition checkpoints.
	dir := t.TempDir()
	ck, err := NewFileCheckpoint(dir, "mine-key", nil)
	if err != nil {
		t.Fatal(err)
	}
	fr := faults.New(1)
	fr.Arm(faults.MinePartition, 2, faults.ErrInjected)
	iopt := opt
	iopt.Checkpoint = ck
	iopt.Faults = fr
	if _, err := MinePerClass(b, iopt); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("interrupted run err = %v, want ErrInjected", err)
	}

	// Resume replays class 0 from its checkpoint and mines the rest;
	// the union is identical at any worker count.
	for _, workers := range []int{1, 2, 8} {
		ropt := opt
		ropt.Checkpoint = ck
		ropt.Workers = parallel.Workers(workers)
		got, err := MinePerClass(b, ropt)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: resumed %d patterns, want %d", workers, len(got), len(want))
		}
		// Checkpoints carry no covers; the merge rebuilds them.
		checkCovers(t, b, got)
		for i := range got {
			if got[i].Key() != want[i].Key() || got[i].Support != want[i].Support {
				t.Fatalf("workers=%d: pattern %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestPerClassCheckpointKeyedByCap(t *testing.T) {
	dir := t.TempDir()
	ck, _ := NewFileCheckpoint(dir, "k", nil)
	if _, ok := ck.Load(0, 100); ok {
		t.Fatal("empty dir loaded")
	}
	ps, err := FPClose([][]int32{{0, 1}, {0, 1}, {0, 2}}, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Save(0, 100, ps); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Load(0, 50); ok {
		t.Fatal("checkpoint replayed under a different cap")
	}
	if _, ok := ck.Load(1, 100); ok {
		t.Fatal("checkpoint replayed under a different class")
	}
	got, ok := ck.Load(0, 100)
	if !ok || len(got) != len(ps) {
		t.Fatalf("Load = %v, %v", got, ok)
	}
	ck2, _ := NewFileCheckpoint(dir, "other-key", nil)
	if _, ok := ck2.Load(0, 100); ok {
		t.Fatal("checkpoint replayed under a different run key")
	}
}

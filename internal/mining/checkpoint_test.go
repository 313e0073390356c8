package mining

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"dfpc/internal/durable"
	"dfpc/internal/faults"
	"dfpc/internal/obs"
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

	// Under a pattern budget, checkpoints written at one worker count
	// replay at another: every partition mines at the full budget, so
	// the resume enumerates nothing.
	for _, wr := range [][2]int{{1, 8}, {8, 1}} {
		bopt := opt
		bopt.MaxPatterns = 1000
		bopt.Checkpoint, err = NewFileCheckpoint(t.TempDir(), "mine-key", nil)
		if err != nil {
			t.Fatal(err)
		}
		bopt.Workers = parallel.Workers(wr[0])
		if _, err := MinePerClass(b, bopt); err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		bopt.Workers, bopt.Obs = parallel.Workers(wr[1]), o
		got, err := MinePerClass(b, bopt)
		if err != nil {
			t.Fatal(err)
		}
		if n := o.Counter("mine.extensions").Value(); n != 0 {
			t.Fatalf("written at workers=%d, resumed at %d: mine.extensions = %d, want 0", wr[0], wr[1], n)
		}
		if !reflect.DeepEqual(patternKeys(got), patternKeys(want)) {
			t.Fatalf("written at workers=%d, resumed at %d: union %v, want %v",
				wr[0], wr[1], patternKeys(got), patternKeys(want))
		}
	}
}

func TestPerClassCheckpointKeyedByCap(t *testing.T) {
	dir := t.TempDir()
	ck, _ := NewFileCheckpoint(dir, "k", nil)
	if _, ok := ck.Load(0, 100); ok {
		t.Fatal("empty dir loaded")
	}
	ps, err := mineClosed([][]int32{{0, 1}, {0, 1}, {0, 2}}, Options{MinSupport: 2})
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

// TestPerClassCheckpointRejectsVersion1: a version-1 stream, written
// when MaxLen still admitted non-closed sets, is re-mined, not
// replayed, even under a matching key, class and cap.
func TestPerClassCheckpointRejectsVersion1(t *testing.T) {
	ck, err := NewFileCheckpoint(t.TempDir(), "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(classCheckpoint{
		Key: "k", Class: 0, Cap: 100, Patterns: []Pattern{{Items: []int32{0, 1}, Support: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := durable.SaveFile(ck.path(0, 100), classKind, 1, payload.Bytes(), nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.Load(0, 100); ok {
		t.Fatal("version-1 checkpoint replayed")
	}
}

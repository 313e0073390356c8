package faults

import (
	"errors"
	"testing"

	"dfpc/internal/guard"
)

func TestNilRegistryIsFree(t *testing.T) {
	var r *Registry
	if err := r.Hit(EvalFold); err != nil {
		t.Fatalf("nil registry Hit = %v, want nil", err)
	}
	if got := r.Hits(EvalFold); got != 0 {
		t.Fatalf("nil registry Hits = %d", got)
	}
	if ev := r.Events(); ev != nil {
		t.Fatalf("nil registry Events = %v", ev)
	}
}

func TestArmNthTriggersExactlyOnce(t *testing.T) {
	r := New()
	r.Arm(CoreMine, 3, ErrInjected)
	for i := 1; i <= 5; i++ {
		err := r.Hit(CoreMine)
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("hit %d: err = %v, want ErrInjected", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("hit %d: err = %v, want nil", i, err)
		}
	}
	if got := r.Hits(CoreMine); got != 5 {
		t.Fatalf("Hits = %d, want 5", got)
	}
	ev := r.Events()
	if len(ev) != 1 || ev[0].Point != CoreMine || ev[0].Hit != 3 {
		t.Fatalf("Events = %+v", ev)
	}
}

func TestKindsMapToGuardSentinels(t *testing.T) {
	cases := []struct {
		kind string
		want error
	}{
		{KindError, ErrInjected},
		{KindCanceled, guard.ErrCanceled},
		{KindDeadline, guard.ErrDeadline},
		{KindTransient, ErrTransient},
	}
	for _, c := range cases {
		r := New()
		if err := r.ArmKind(EvalFold, 1, c.kind); err != nil {
			t.Fatalf("ArmKind(%s): %v", c.kind, err)
		}
		err := r.Hit(EvalFold)
		if !errors.Is(err, c.want) {
			t.Errorf("kind %s: err = %v, want Is(%v)", c.kind, err, c.want)
		}
		if !errors.Is(err, ErrInjected) {
			t.Errorf("kind %s: err = %v does not wrap ErrInjected", c.kind, err)
		}
	}
	if err := New().ArmKind(EvalFold, 1, "bogus"); err == nil {
		t.Fatal("ArmKind(bogus) accepted")
	}
}

func TestArmPanic(t *testing.T) {
	r := New()
	r.ArmPanic(SVMSolve, 2, "boom")
	if err := r.Hit(SVMSolve); err != nil {
		t.Fatalf("hit 1: %v", err)
	}
	defer func() {
		if v := recover(); v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
		ev := r.Events()
		if len(ev) != 1 || !ev[0].Panicked {
			t.Fatalf("Events = %+v, want one panicked event", ev)
		}
	}()
	r.Hit(SVMSolve)
	t.Fatal("hit 2 did not panic")
}

func TestArmUnknownPointPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arming unknown point did not panic")
		}
	}()
	New().Arm("no.such.point", 1, ErrInjected)
}

func TestParse(t *testing.T) {
	r := New()
	if err := r.Parse("eval.fold:2:canceled, fs.rename:1, mine.partition:1:transient"); err != nil {
		t.Fatal(err)
	}
	if err := r.Hit(EvalFold); err != nil {
		t.Fatalf("fold hit 1: %v", err)
	}
	if err := r.Hit(EvalFold); !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("fold hit 2 = %v, want ErrCanceled", err)
	}
	if err := r.Hit(FSRename); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename hit 1 = %v, want ErrInjected", err)
	}
	if err := r.Hit(MinePartition); !errors.Is(err, ErrTransient) {
		t.Fatalf("partition hit 1 = %v, want ErrTransient", err)
	}

	for _, bad := range []string{"eval.fold", "nope:1", "eval.fold:0", "eval.fold:x", "eval.fold:1:bogus"} {
		if err := New().Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}

	// Empty and whitespace-only specs are no-ops.
	if err := New().Parse(" , "); err != nil {
		t.Fatalf("empty spec: %v", err)
	}

	// panic kind arms a panic.
	rp := New()
	if err := rp.Parse("svm.smo:1:panic"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { recover() }()
		rp.Hit(SVMSolve)
		t.Error("parsed panic arm did not panic")
	}()
}

func TestKnownSortedAndComplete(t *testing.T) {
	pts := Known()
	if len(pts) < 15 {
		t.Fatalf("Known() = %d points, expected the full set", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i-1] >= pts[i] {
			t.Fatalf("Known() not sorted/unique at %d: %s >= %s", i, pts[i-1], pts[i])
		}
	}
}

func TestGobTransparent(t *testing.T) {
	r := New()
	r.Arm(EvalFold, 1, ErrInjected)
	b, err := r.GobEncode()
	if err != nil || b != nil {
		t.Fatalf("GobEncode = %v, %v", b, err)
	}
	var r2 Registry
	if err := r2.GobDecode(nil); err != nil {
		t.Fatalf("GobDecode: %v", err)
	}
}

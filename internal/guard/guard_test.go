package guard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"testing"
	"time"
)

func TestNilGuardIsNoOp(t *testing.T) {
	var g *Guard
	if g.Enabled() {
		t.Fatal("nil guard reports enabled")
	}
	for i := 0; i < 10*checkEvery; i++ {
		if err := g.Check(); err != nil {
			t.Fatalf("nil guard Check = %v", err)
		}
	}
	if err := g.CheckNow(); err != nil {
		t.Fatalf("nil guard CheckNow = %v", err)
	}
}

func TestNewFastPath(t *testing.T) {
	if g := New(nil, Limits{}); g != nil {
		t.Fatal("New(nil, no limits) should return the nil fast path")
	}
	if g := New(context.Background(), Limits{}); g != nil {
		t.Fatal("New(Background, no limits) should return the nil fast path")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if g := New(ctx, Limits{}); g == nil {
		t.Fatal("cancellable context must enable the guard")
	}
	if g := New(nil, Limits{Timeout: time.Hour}); g == nil {
		t.Fatal("timeout must enable the guard")
	}
}

func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(ctx, Limits{})
	if err := g.CheckNow(); err != nil {
		t.Fatalf("pre-cancel CheckNow = %v", err)
	}
	cancel()
	err := g.CheckNow()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v should wrap context.Canceled", err)
	}
	// Amortized Check must surface it within one window.
	g2 := New(ctx, Limits{})
	var got error
	for i := 0; i < checkEvery+1; i++ {
		if got = g2.Check(); got != nil {
			break
		}
	}
	if !errors.Is(got, ErrCanceled) {
		t.Fatalf("amortized Check = %v, want ErrCanceled", got)
	}
}

func TestContextDeadlineMapsToErrDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	err := New(ctx, Limits{}).CheckNow()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should wrap context.DeadlineExceeded", err)
	}
}

func TestWallClockDeadline(t *testing.T) {
	g := New(nil, Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	if err := g.CheckNow(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if err := g.Fork().CheckNow(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("fork err = %v, want ErrDeadline", err)
	}
	g = New(nil, Limits{Timeout: time.Hour})
	if err := g.CheckNow(); err != nil {
		t.Fatalf("future deadline CheckNow = %v", err)
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{ErrCanceled, ErrDeadline, ErrPartialResult}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken between %v and %v", a, b)
			}
		}
	}
}

func BenchmarkCheckDisabled(b *testing.B) {
	var g *Guard
	for i := 0; i < b.N; i++ {
		if err := g.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckEnabled(b *testing.B) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := New(ctx, Limits{Timeout: time.Hour})
	for i := 0; i < b.N; i++ {
		if err := g.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGobTransparent(t *testing.T) {
	// A config carrying a live guard saves and loads without it.
	type config struct {
		N     int
		Guard *Guard
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(config{N: 3, Guard: New(ctx, Limits{Timeout: time.Hour})}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got config
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.N != 3 {
		t.Fatalf("N = %d, want 3", got.N)
	}
	if err := got.Guard.CheckNow(); err != nil {
		t.Fatalf("decoded guard CheckNow = %v", err)
	}
}

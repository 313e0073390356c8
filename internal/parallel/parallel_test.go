package parallel

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dfpc/internal/guard"
)

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0).Resolve(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0).Resolve() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(1).Resolve(); got != 1 {
		t.Errorf("Workers(1).Resolve() = %d, want 1", got)
	}
	if got := Workers(-3).Resolve(); got != 1 {
		t.Errorf("Workers(-3).Resolve() = %d, want 1", got)
	}
	if got := Workers(8).Resolve(); got != 8 {
		t.Errorf("Workers(8).Resolve() = %d, want 8", got)
	}
}

func TestWorkersGobTransparent(t *testing.T) {
	type carrier struct {
		Name    string
		Workers Workers
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(carrier{Name: "m", Workers: 7}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back carrier
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Workers != 0 {
		t.Errorf("decoded Workers = %d, want 0 (machine-resolved)", back.Workers)
	}
	if back.Name != "m" {
		t.Errorf("sibling field lost in round-trip: %q", back.Name)
	}
}

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, w := range []Workers{1, 2, 8, 0} {
		const n = 1000
		hits := make([]int32, n)
		if err := ForEach(w, n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, h)
			}
		}
	}
}

func TestForEachSequentialSpawnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	inLoop := 0
	if err := ForEach(1, 100, func(i int) error {
		if g := runtime.NumGoroutine(); g > inLoop {
			inLoop = g
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if inLoop > before {
		t.Errorf("sequential ForEach grew goroutine count %d -> %d", before, inLoop)
	}
}

func TestForEachLowestIndexError(t *testing.T) {
	// Indices 3 and 7 fail; the lowest must win at any worker count.
	for _, w := range []Workers{1, 2, 8} {
		err := ForEach(w, 10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Errorf("workers=%d: err = %v, want boom 3", w, err)
		}
	}
}

func TestForEachEarlyExit(t *testing.T) {
	// After index 0 fails, the pool must not claim far-away indices.
	var ran atomic.Int64
	err := ForEach(4, 1_000_000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("first")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 10_000 {
		t.Errorf("early exit claimed %d indices; expected a small prefix", n)
	}
}

func TestForEachPanicCapture(t *testing.T) {
	for _, w := range []Workers{1, 4} {
		err := ForEach(w, 8, func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", w, err)
		}
		if pe.Index != 2 || fmt.Sprint(pe.Value) != "kaboom" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError = {%d %v stack:%d}", w, pe.Index, pe.Value, len(pe.Stack))
		}
	}
}

func TestForEachGuardCancellation(t *testing.T) {
	// Satellite: cancellation inside a parallel region must surface
	// promptly as ErrCanceled, with each worker polling its own forked
	// guard so the amortization counter is goroutine-local.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	root := guard.New(ctx, guard.Limits{})
	err := ForEach(4, 8, func(i int) error {
		g := root.Fork() // goroutine-local guard: fresh amortization counter
		if i == 0 {      // index 0 is always claimed before the pool can drain
			cancel()
			return g.CheckNow()
		}
		for { // spin until cancellation propagates to this worker's guard
			if err := g.CheckNow(); err != nil {
				return err
			}
		}
	})
	if !errors.Is(err, guard.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestMapOrdersResults(t *testing.T) {
	for _, w := range []Workers{1, 2, 8} {
		out, err := Map(w, 64, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", w, i, v)
			}
		}
	}
	if _, err := Map(3, 5, func(i int) (int, error) {
		if i >= 1 {
			return 0, fmt.Errorf("e%d", i)
		}
		return 0, nil
	}); err == nil || err.Error() != "e1" {
		t.Errorf("Map error = %v, want e1", err)
	}
}

func TestChunks(t *testing.T) {
	cases := []struct{ n, parts, want int }{
		{10, 3, 3}, {10, 1, 1}, {3, 8, 3}, {0, 4, 0}, {7, 7, 7},
	}
	for _, c := range cases {
		chunks := Chunks(c.n, c.parts)
		if len(chunks) != c.want {
			t.Errorf("Chunks(%d,%d) = %d chunks, want %d", c.n, c.parts, len(chunks), c.want)
			continue
		}
		prev := 0
		for _, ch := range chunks {
			if ch[0] != prev || ch[1] <= ch[0] {
				t.Errorf("Chunks(%d,%d): bad chunk %v after %d", c.n, c.parts, ch, prev)
			}
			prev = ch[1]
		}
		if c.n > 0 && prev != c.n {
			t.Errorf("Chunks(%d,%d) covers [0,%d)", c.n, c.parts, prev)
		}
	}
}

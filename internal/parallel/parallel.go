// Package parallel is the pipeline's deterministic execution layer: a
// bounded worker pool over index ranges, built only on the stdlib.
// Every compute stage that fans out — CV folds, per-class mining,
// MMRFS relevance scoring, one-vs-one SVM subproblems — schedules
// through ForEach so the concurrency discipline lives in one place.
//
// The layer's contract is determinism: for any worker count, the same
// inputs produce the same outputs. The primitives make that easy to
// uphold:
//
//   - Work items are claimed in ascending index order from one atomic
//     counter, and callers write results only into their own index's
//     slot, so merges in index order reproduce the sequential result.
//   - On failure, ForEach returns the error of the lowest index that
//     errored — the same error a sequential loop would have returned —
//     because every index below a failed one was already claimed and
//     runs to completion before the pool drains.
//   - Workers == 1 is an exact sequential fallback: the caller's
//     goroutine runs every index in order and zero goroutines are
//     spawned, so "parallel off" is not merely "one worker" but the
//     plain loop it replaces.
//
// Early exit is cooperative: after the first error no new index is
// claimed, in-flight indices finish, and cancellation surfacing as a
// guard sentinel from any worker stops the pool the same way.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers configures a stage's worker count: 0 resolves to
// runtime.GOMAXPROCS(0), 1 (or any negative value) to the exact
// sequential fallback, and n > 1 to at most n concurrent workers.
//
// Workers rides inside configs that are gob-snapshotted with saved
// models (core.Config); like obs.LogHandle it encodes as nothing, so a
// loaded model resolves its worker count from the machine it runs on,
// not the machine it was trained on.
type Workers int

// Resolve returns the effective worker count: GOMAXPROCS for 0,
// 1 for negative values, w otherwise.
func (w Workers) Resolve() int {
	switch {
	case w == 0:
		return runtime.GOMAXPROCS(0)
	case w < 1:
		return 1
	default:
		return int(w)
	}
}

// GobEncode makes configs embedding a Workers field encodable without
// persisting the count; worker counts are a property of the executing
// machine, not of a trained model.
func (w Workers) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores nothing: a decoded Workers is 0, which resolves
// to GOMAXPROCS at run time.
func (w *Workers) GobDecode([]byte) error { return nil }

// PanicError wraps a panic recovered from a work item, in both the
// sequential and the parallel path, so a panicking closure surfaces as
// an ordinary error instead of tearing down an unrelated goroutine.
type PanicError struct {
	// Index is the work-item index whose closure panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: index %d panicked: %v", e.Index, e.Value)
}

// call runs fn(i) with panic capture.
func call(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ForEach runs fn(i) for every i in [0, n) on up to w.Resolve()
// workers and returns the first error in index order (nil when every
// index succeeds). With one worker it degenerates to an in-goroutine
// sequential loop that stops at the first error.
//
// Closures must keep their writes index-partitioned — out[i] only, for
// their own i — which is what makes index-ordered merges reproduce the
// sequential result exactly (the determinism suites under -race catch
// a shared write). After an error no new index is claimed; indices already
// claimed run to completion, so every index below the returned error's
// ran fully, exactly as in the sequential loop.
func ForEach(w Workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := w.Resolve()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next unclaimed index
		stop atomic.Bool  // set on first error: claim nothing further

		mu      sync.Mutex
		loIdx   int
		loErr   error
		haveErr bool
	)
	record := func(i int, err error) {
		mu.Lock()
		if !haveErr || i < loIdx {
			loIdx, loErr, haveErr = i, err, true
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		//vet:ignore nondeterm this IS the deterministic pool: workers race only over the atomic index; outputs are index-partitioned
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(fn, i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return loErr
}

// Chunks splits [0, n) into at most parts contiguous [start, end)
// ranges whose sizes differ by at most one, in ascending order. Chunked
// reductions merge per-chunk results in chunk order; combined with a
// strict-inequality within-chunk scan this preserves the sequential
// lowest-index tie-break for any chunk count.
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	size, rem := n/parts, n%parts
	start := 0
	for c := 0; c < parts; c++ {
		end := start + size
		if c < rem {
			end++
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

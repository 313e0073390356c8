// Package guard is the pipeline's bounded-execution substrate: a small
// sentinel-error taxonomy shared by every long-running stage plus a
// cooperative execution guard that combines context cancellation and a
// wall-clock deadline behind one amortized Check call.
//
// Like the obs package, guard is built around a nil fast path: a nil
// *Guard is a valid disabled guard whose Check/CheckNow are nil-check
// no-ops, so instrumented loops thread a possibly-nil guard through
// unconditionally. New returns nil when the context carries no
// cancellation signal and no limit is set, which keeps the
// no-context/no-limit configuration free.
//
// Callers own guard construction: whoever holds the context builds one
// guard per stage with New and hands it to the stage through the
// Guard field of the stage's options; stages only poll it (and Fork it
// for parallel workers). The guard is therefore the one sanctioned
// carrier of a context inside a struct.
//
// Placement rule for miners and learners (followed by every stage in
// this repo; future miners must do the same): call Check at every
// recursion entry and once per emitted pattern / loop iteration, and
// CheckNow at stage entry so a pre-canceled context fails fast. Check
// amortizes the real poll to one in every checkEvery calls, so it is
// cheap enough for hot loops.
package guard

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// The sentinel taxonomy. All guard-produced errors wrap one of these,
// so callers dispatch with errors.Is regardless of how many fmt.Errorf
// layers the pipeline added on the way up.
var (
	// ErrCanceled marks work aborted by context cancellation.
	ErrCanceled = errors.New("guard: canceled")
	// ErrDeadline marks work aborted by a wall-clock deadline (a stage
	// timeout or a context deadline).
	ErrDeadline = errors.New("guard: deadline exceeded")
	// ErrPartialResult marks an aggregate result in which every
	// component failed, leaving nothing to aggregate honestly.
	ErrPartialResult = errors.New("guard: no complete partial results")
)

// Limits bounds one guarded stage.
type Limits struct {
	// Timeout, when positive, aborts work with ErrDeadline once
	// Timeout has passed since New. Zero means no wall-clock bound
	// beyond the context's own deadline.
	Timeout time.Duration
}

// Guard is a cooperative execution guard for one single-goroutine
// stage. The zero of its pointer type (nil) is a valid disabled guard.
// A Guard is NOT safe for concurrent use; give each goroutine its own
// (guards are cheap — derive several from the same context).
type Guard struct {
	//vet:ignore ctxfirst the Guard IS the sanctioned single-stage ctx carrier (see package doc)
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Time

	calls uint32
}

// checkEvery is the amortization window of Check: one real poll per
// checkEvery calls.
const checkEvery = 256

// New builds a guard from a context plus limits. It returns nil — the
// disabled fast path — when ctx carries no cancellation signal and no
// limit is set. A nil ctx is treated as context.Background().
func New(ctx context.Context, lim Limits) *Guard {
	var deadline time.Time
	if lim.Timeout > 0 {
		//vet:ignore nondeterm wall-clock deadline arming; affects only cancellation, never reported results
		deadline = time.Now().Add(lim.Timeout)
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	if done == nil && deadline.IsZero() {
		return nil
	}
	return &Guard{ctx: ctx, done: done, deadline: deadline}
}

// Enabled reports whether the guard performs any checking.
func (g *Guard) Enabled() bool { return g != nil }

// Fork returns a guard watching the same context and deadline with a
// fresh amortization counter. A Guard is single-goroutine state
// (Check's counter is deliberately non-atomic so the amortized
// path stays a plain increment); parallel regions give every worker
// its own fork instead of sharing one guard and contending — or racing
// — on the counter. A nil guard forks to nil.
func (g *Guard) Fork() *Guard {
	if g == nil {
		return nil
	}
	return &Guard{ctx: g.ctx, done: g.done, deadline: g.deadline}
}

// Check polls the guard's conditions once every checkEvery calls and
// reports the first violated one. Call it at recursion entries and loop
// iterations; between polls it is a nil check plus one counter
// increment.
func (g *Guard) Check() error {
	if g == nil {
		return nil
	}
	g.calls++
	if g.calls%checkEvery != 0 {
		return nil
	}
	return g.CheckNow()
}

// CheckNow polls the guard's conditions immediately: context first,
// then deadline. Call it at stage entry so pre-canceled contexts fail
// before any work is done.
func (g *Guard) CheckNow() error {
	if g == nil {
		return nil
	}
	if g.done != nil {
		select {
		case <-g.done:
			if errors.Is(g.ctx.Err(), context.DeadlineExceeded) {
				return fmt.Errorf("%w: %w", ErrDeadline, g.ctx.Err())
			}
			return fmt.Errorf("%w: %w", ErrCanceled, g.ctx.Err())
		default:
		}
	}
	//vet:ignore nondeterm deadline poll; affects only cancellation, never reported results
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return fmt.Errorf("%w (deadline %s)", ErrDeadline, g.deadline.Format(time.RFC3339Nano))
	}
	return nil
}

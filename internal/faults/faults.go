// Package faults is a deterministic, seeded fault injector for the
// pattern-classification pipeline. Production code declares named
// injection points ("fs.rename", "eval.fold", ...) and calls
// Registry.Hit at each one; a test or a CLI -faults flag arms a point
// to fail on its nth hit with a chosen error kind (or a panic). With a
// nil *Registry every Hit is a single nil-receiver check — the
// disabled path is free, exactly like a nil *obs.Observer.
//
// Determinism: arms trigger on exact hit ordinals, and the optional
// probabilistic mode draws from a PRNG seeded at construction, so a
// given (seed, arm set, execution order) always injects at the same
// sites. Under internal/parallel's ascending-claim contract the
// per-point hit ordinals are stable for Workers(1) and exercised
// concurrently (but still sentinel-bounded) at higher counts.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dfpc/internal/guard"
)

// Named injection points. Production code must use these constants
// (not ad-hoc strings) so Known() stays the single source of truth the
// chaos suite sweeps.
const (
	// Filesystem points, hit by internal/durable around every atomic
	// artifact write.
	FSCreate = "fs.create"
	FSWrite  = "fs.write"
	FSSync   = "fs.sync"
	FSRename = "fs.rename"
	FSClose  = "fs.close"

	// Stage boundaries inside core Fit/Predict.
	CoreFitStart = "core.fit.start"
	CoreMine     = "core.mine"
	CoreSelect   = "core.select"
	CoreLearn    = "core.learn"
	CorePredict  = "core.predict"

	// Per-class mining partitions and the individual miners.
	MinePartition = "mine.partition"
	MineGrow      = "mine.grow"

	// Feature selection, learners, cross-validation.
	FeatselMMRFS = "featsel.mmrfs"
	SVMSolve     = "svm.smo"
	C45Build     = "c45.build"
	EvalFold     = "eval.fold"

	// Telemetry journal appends and checkpoint writes.
	TelemetryJournal = "telemetry.journal"
	CheckpointWrite  = "checkpoint.write"

	// Drift-report snapshots (modelobs.Tracker.Report).
	ModelobsSnapshot = "modelobs.snapshot"

	// Pattern-matcher trie compilation at the tail of Fit
	// (internal/patmatch via core.compileMatcher).
	PatmatchCompile = "patmatch.compile"
)

// Known returns every registered injection point name, sorted. The
// chaos suite iterates this list so a new point cannot be added
// without being swept.
func Known() []string {
	pts := []string{
		FSCreate, FSWrite, FSSync, FSRename, FSClose,
		CoreFitStart, CoreMine, CoreSelect, CoreLearn, CorePredict,
		MinePartition, MineGrow,
		FeatselMMRFS, SVMSolve, C45Build, EvalFold,
		TelemetryJournal, CheckpointWrite,
		ModelobsSnapshot,
		PatmatchCompile,
	}
	sort.Strings(pts)
	return pts
}

func isKnown(point string) bool {
	for _, p := range Known() {
		if p == point {
			return true
		}
	}
	return false
}

// ErrInjected is the generic injected-failure sentinel; every error
// returned by Hit wraps it (possibly alongside a guard sentinel), so
// errors.Is(err, faults.ErrInjected) identifies injected faults
// anywhere in the pipeline.
var ErrInjected = errors.New("faults: injected failure")

// ErrTransient marks an injected failure that internal/durable's
// retry-with-backoff is allowed to absorb; it models EINTR-class
// filesystem blips.
var ErrTransient = fmt.Errorf("transient: %w", ErrInjected)

// Kind names accepted by Parse and Arm helpers.
const (
	KindError     = "error"     // generic ErrInjected
	KindCanceled  = "canceled"  // guard.ErrCanceled
	KindDeadline  = "deadline"  // guard.ErrDeadline
	KindTransient = "transient" // ErrTransient (durable retries these)
	KindPanic     = "panic"     // worker panic, recovered by internal/parallel
)

// kindErr maps a kind name to the sentinel an armed Hit returns.
func kindErr(kind string) (error, bool) {
	switch kind {
	case KindError, "":
		return ErrInjected, true
	case KindCanceled:
		return fmt.Errorf("%w: %w", guard.ErrCanceled, ErrInjected), true
	case KindDeadline:
		return fmt.Errorf("%w: %w", guard.ErrDeadline, ErrInjected), true
	case KindTransient:
		return ErrTransient, true
	default:
		return nil, false
	}
}

// Event records one triggered injection, for test assertions and the
// run journal.
type Event struct {
	Point    string
	Hit      uint64 // 1-based ordinal of the triggering hit
	Err      string
	Panicked bool
}

type arm struct {
	nth      uint64 // trigger on this 1-based hit; 0 with Prob>0 = probabilistic
	prob     float64
	err      error
	panicVal any
	once     bool // consumed after first trigger
	spent    bool
}

// Registry is a set of armed injection points. The zero value is not
// used directly; construct with New. A nil *Registry is the disabled
// injector: Hit returns nil after one pointer compare.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	arms   map[string][]*arm
	counts map[string]uint64
	events []Event
}

// New returns an empty registry whose probabilistic arms draw from a
// PRNG seeded with seed (so a chaos run is reproducible end to end).
func New(seed int64) *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(seed)),
		arms:   map[string][]*arm{},
		counts: map[string]uint64{},
	}
}

// Arm schedules err to be returned by the nth (1-based) Hit of point.
// The arm triggers once and is then spent. Unknown points panic — an
// armed typo would otherwise silently never fire.
func (r *Registry) Arm(point string, nth uint64, err error) {
	r.arm(point, &arm{nth: nth, err: err, once: true})
}

// ArmKind is Arm with a named error kind ("error", "canceled",
// "deadline", "transient").
func (r *Registry) ArmKind(point string, nth uint64, kind string) error {
	e, ok := kindErr(kind)
	if !ok {
		return fmt.Errorf("faults: unknown kind %q", kind)
	}
	r.Arm(point, nth, e)
	return nil
}

// ArmPanic schedules the nth Hit of point to panic with val, modeling
// a worker crash inside internal/parallel's pool.
func (r *Registry) ArmPanic(point string, nth uint64, val any) {
	r.arm(point, &arm{nth: nth, panicVal: val, once: true})
}

// ArmProb schedules point to fail with err on each hit independently
// with probability p, drawn from the registry's seeded PRNG.
func (r *Registry) ArmProb(point string, p float64, err error) {
	r.arm(point, &arm{prob: p, err: err})
}

func (r *Registry) arm(point string, a *arm) {
	if !isKnown(point) {
		panic(fmt.Sprintf("faults: arming unknown injection point %q", point))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arms[point] = append(r.arms[point], a)
}

// Hit reports whether an armed fault fires at point. A nil registry
// (or an unarmed point) returns nil. A triggered error arm returns its
// sentinel wrapped with the point name and hit ordinal; a panic arm
// panics, which internal/parallel converts into a *PanicError.
func (r *Registry) Hit(point string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.counts[point]++
	n := r.counts[point]
	for _, a := range r.arms[point] {
		if a.spent {
			continue
		}
		trigger := false
		switch {
		case a.nth > 0:
			trigger = a.nth == n
		case a.prob > 0:
			//vet:ignore nondeterm r.rng is seeded from the registry config; draws replay identically run to run
			trigger = r.rng.Float64() < a.prob
		}
		if !trigger {
			continue
		}
		if a.once {
			a.spent = true
		}
		if a.panicVal != nil {
			r.events = append(r.events, Event{Point: point, Hit: n, Panicked: true})
			r.mu.Unlock()
			panic(a.panicVal)
		}
		err := fmt.Errorf("faults: injected at %s (hit %d): %w", point, n, a.err)
		r.events = append(r.events, Event{Point: point, Hit: n, Err: err.Error()})
		r.mu.Unlock()
		return err
	}
	r.mu.Unlock()
	return nil
}

// Hits returns how many times point has been hit so far.
func (r *Registry) Hits(point string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[point]
}

// Events returns a copy of the triggered-injection log, in order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Parse arms the registry from a CLI spec: comma-separated
// "point:nth:kind" triples, e.g. "eval.fold:3:canceled,fs.rename:1:error".
// kind defaults to "error" when omitted ("point:nth"). "panic" arms a
// worker panic. Ordinals are 1-based.
func (r *Registry) Parse(spec string) error {
	for _, one := range strings.Split(spec, ",") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		parts := strings.Split(one, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return fmt.Errorf("faults: bad spec %q (want point:nth[:kind])", one)
		}
		point := parts[0]
		if !isKnown(point) {
			return fmt.Errorf("faults: unknown injection point %q (known: %s)",
				point, strings.Join(Known(), " "))
		}
		nth, err := strconv.ParseUint(parts[1], 10, 64)
		if err != nil || nth == 0 {
			return fmt.Errorf("faults: bad hit ordinal in %q (want a positive integer)", one)
		}
		kind := KindError
		if len(parts) == 3 {
			kind = parts[2]
		}
		if kind == KindPanic {
			r.ArmPanic(point, nth, fmt.Sprintf("injected panic at %s", point))
			continue
		}
		if err := r.ArmKind(point, nth, kind); err != nil {
			return fmt.Errorf("faults: bad kind in %q: %w", one, err)
		}
	}
	return nil
}

// GobEncode makes a Registry transparent to gob: pipeline snapshots
// that embed a Config carrying a Registry serialize it as nothing,
// mirroring obs.Observer and parallel.Workers.
func (r *Registry) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores the transparent encoding as a disabled registry.
func (r *Registry) GobDecode([]byte) error { return nil }

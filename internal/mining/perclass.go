package mining

import (
	"errors"
	"fmt"
	"log/slog"

	"dfpc/internal/bitset"
	"dfpc/internal/dataset"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// PerClassOptions configures the paper's feature-generation step
// (Section 3: "The data is partitioned according to the class label.
// Frequent patterns are discovered in each partition with min_sup").
type PerClassOptions struct {
	// MinSupport is the relative minimum support θ0 ∈ (0, 1], applied
	// within each class partition.
	MinSupport float64
	// Closed selects closed-pattern mining (the paper's choice); false
	// mines all frequent patterns (the Pat_All ablation pool is still
	// closed in the paper, but all-pattern pools are useful for the
	// ablation benchmarks).
	Closed bool
	// MaxPatterns caps the total pattern count across partitions;
	// exceeded → ErrPatternBudget. 0 = unlimited.
	MaxPatterns int
	// MaxLen caps pattern length. 0 = unlimited. See Options.MaxLen.
	MaxLen int
	// MinLen drops patterns shorter than this after mining. The
	// classification framework sets MinLen = 2 because single items are
	// already part of the feature space I. 0 or 1 keeps everything.
	MinLen int
	// Guard, when non-nil, bounds the whole run; every class partition
	// mines under its own Fork (see Options.Guard). Nil costs nothing.
	Guard *guard.Guard
	// Obs, when non-nil, records one span per class partition plus the
	// mining counters (see Options.Obs). Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per class
	// partition and per run; the adaptive wrapper additionally emits a
	// WARN per min_sup escalation. Nil disables logging.
	Log *slog.Logger
	// Workers bounds the per-class mining fan-out (0 = GOMAXPROCS,
	// 1 = sequential). Class partitions are independent (Section 3.1),
	// so they mine concurrently; the union is merged in class order and
	// the pattern-budget accounting replays the sequential semantics
	// exactly, so the returned union is identical for any worker count.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection: one
	// mine.partition hit per class partition, plus Mine's own
	// mine.grow entry point. Nil is free.
	Faults *faults.Registry
	// Checkpoint, when non-nil, persists each class partition's raw
	// pattern stream after it is mined and replays it on a later run,
	// skipping the enumeration. Checkpoints are keyed by (class, cap)
	// — the cap is part of the key because a capped run is a strict
	// prefix of an uncapped one, so streams mined at different caps are
	// different artifacts. The replayed stream feeds the exact same
	// class-order merge, so a resumed union is byte-identical to an
	// uninterrupted one at any worker count.
	Checkpoint PartitionCheckpoint
}

// PartitionCheckpoint persists per-class partition results for
// checkpoint/resume of long mining runs. Implementations must be safe
// for concurrent use (partitions mine in parallel).
type PartitionCheckpoint interface {
	// Load returns the previously saved raw pattern stream for
	// (class, cap), or ok=false when none exists.
	Load(class, cap int) (ps []Pattern, ok bool)
	// Save persists the raw pattern stream for (class, cap). Errors
	// abort the mining run — a checkpoint that cannot be written must
	// not be silently skipped, or a crash would replay differently.
	Save(class, cap int, ps []Pattern) error
}

// MinePerClass partitions the binary dataset by class, mines each
// partition with the relative min_sup, and returns the deduplicated
// union F of the per-class pattern sets. The merge builds each union
// pattern's coverage bitmap over all of b once and keeps it on the
// pattern (Pattern.Cover): Support is its count, the global absolute
// support, and per-class supports are its intersections with
// b.ClassMasks, which is how the measures package and MMRFS consume it.
//
// With Workers > 1 the class partitions mine concurrently. Mine
// enumerates in a deterministic order and a capped run is an exact
// prefix of an uncapped one, so mining every class at the full budget
// and then replaying the sequential remaining-budget arithmetic during
// the class-order merge yields byte-identical unions — and the same
// ErrPatternBudget trips — at any worker count.
func MinePerClass(b *dataset.Binary, opt PerClassOptions) ([]Pattern, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("mining: relative MinSupport = %v, want (0,1]", opt.MinSupport)
	}
	// Fail fast on a pre-canceled context before any partition work.
	if err := opt.Guard.CheckNow(); err != nil {
		return nil, err
	}

	classes := make([]int, 0, b.NumClasses())
	for c := 0; c < b.NumClasses(); c++ {
		if len(b.ClassMasks[c].Indices()) > 0 {
			classes = append(classes, c)
		}
	}
	budget := opt.MaxPatterns

	// mineClass mines one partition at the given raw-pattern cap,
	// recording its span and counters on o (a per-worker fork when
	// mining concurrently). It returns Mine's raw pattern stream —
	// filtering and budget accounting happen in the class-order merge.
	mineClass := func(c, cap int, o *obs.Observer) ([]Pattern, error) {
		if err := opt.Faults.Hit(faults.MinePartition); err != nil {
			return nil, fmt.Errorf("mining: class %d partition: %w", c, err)
		}
		rows := b.ClassMasks[c].Indices()
		abs := int(opt.MinSupport*float64(len(rows)) + 0.5)
		if abs < 1 {
			abs = 1
		}
		sp := o.Start("mine-class").
			Attr("class", c).Attr("rows", len(rows)).Attr("abs_min_sup", abs)
		var ps []Pattern
		var err error
		restored := false
		if opt.Checkpoint != nil {
			ps, restored = opt.Checkpoint.Load(c, cap)
		}
		if !restored {
			// The partition's item columns, projected onto its rows.
			cols := make([]*bitset.Bitset, len(b.Columns))
			for i := range cols {
				cols[i] = bitset.New(len(rows))
			}
			for k, r := range rows {
				for _, it := range b.Rows[r] {
					cols[it].Set(k)
				}
			}
			ps, err = Mine(cols, Options{
				MinSupport:  abs,
				MaxLen:      opt.MaxLen,
				MaxPatterns: cap,
				Closed:      opt.Closed,
				Guard:       opt.Guard.Fork(),
				Obs:         o,
				Log:         opt.Log,
				Faults:      opt.Faults,
			})
			// Only clean partitions checkpoint: a budget-tripped or
			// canceled stream is partial and must be re-mined on resume.
			if err == nil && opt.Checkpoint != nil {
				if cerr := opt.Checkpoint.Save(c, cap, ps); cerr != nil {
					err = fmt.Errorf("mining: class %d checkpoint: %w", c, cerr)
				}
			}
		}
		sp.Attr("patterns", len(ps)).Attr("restored", restored).End()
		if opt.Log != nil {
			opt.Log.Debug("class partition mined",
				slog.Int("class", c),
				slog.Int("rows", len(rows)),
				slog.Int("abs_min_sup", abs),
				slog.Int("patterns", len(ps)))
		}
		return ps, err
	}

	seen := map[string]bool{}
	var union []Pattern
	dedupDropped := opt.Obs.Counter("mine.dedup_dropped")
	minlenDropped := opt.Obs.Counter("mine.minlen_dropped")
	// absorb filters one class's raw pattern stream (min-len, dedup,
	// global coverage and support) into the union, in stream order.
	absorb := func(ps []Pattern) {
		for _, p := range ps {
			if opt.MinLen > 1 && p.Len() < opt.MinLen {
				minlenDropped.Inc()
				continue
			}
			key := p.Key()
			if seen[key] {
				dedupDropped.Inc()
				continue
			}
			seen[key] = true
			p.cover = b.Cover(p.Items)
			p.Support = p.cover.Count()
			union = append(union, p)
		}
	}
	finish := func() ([]Pattern, error) {
		opt.Obs.Counter("mine.patterns_union").Add(int64(len(union)))
		if opt.Log != nil {
			opt.Log.Debug("per-class mining done",
				slog.Float64("min_sup", opt.MinSupport),
				slog.Int("union", len(union)))
		}
		SortPatterns(union)
		return union, nil
	}

	if opt.Workers.Resolve() > 1 && len(classes) > 1 {
		// Concurrent partitions each mine at the full budget; a class
		// that errors stops further classes from being claimed (and
		// ForEach guarantees every lower-indexed class ran to
		// completion, which is all the merge consumes).
		type classResult struct {
			ps  []Pattern
			err error
		}
		results := make([]classResult, len(classes))
		perr := parallel.ForEach(opt.Workers, len(classes), func(k int) error {
			ps, err := mineClass(classes[k], budget, opt.Obs.Fork())
			results[k] = classResult{ps: ps, err: err}
			return err
		})
		var pe *parallel.PanicError
		if errors.As(perr, &pe) {
			return nil, perr
		}
		// Merge in class order, replaying the sequential budget
		// arithmetic: remaining = budget − |union so far| (post-filter,
		// exactly as the sequential path computes its caps), truncate
		// the raw stream to it, and surface ErrPatternBudget exactly
		// where a sequential run would have — Mine trips its cap
		// only on attempting pattern cap+1, so a full-budget run is a
		// superset prefix of any tighter-capped run of the same class.
		for k := range classes {
			ps, err := results[k].ps, results[k].err
			if budget > 0 {
				remaining := budget - len(union)
				if remaining <= 0 {
					return union, ErrPatternBudget
				}
				if len(ps) > remaining {
					ps, err = ps[:remaining], ErrPatternBudget
				}
			}
			absorb(ps)
			if err != nil {
				return union, err
			}
		}
		return finish()
	}

	for _, c := range classes {
		cap := 0
		if budget > 0 {
			remaining := budget - len(union)
			if remaining <= 0 {
				// Keep the span accounting of the historical sequential
				// loop: the class that finds the budget already spent
				// still records its (empty) span.
				rows := b.ClassMasks[c].Indices()
				abs := int(opt.MinSupport*float64(len(rows)) + 0.5)
				if abs < 1 {
					abs = 1
				}
				opt.Obs.Start("mine-class").
					Attr("class", c).Attr("rows", len(rows)).Attr("abs_min_sup", abs).End()
				return union, ErrPatternBudget
			}
			cap = remaining
		}
		ps, err := mineClass(c, cap, opt.Obs)
		absorb(ps)
		if err != nil {
			return union, err
		}
	}
	return finish()
}

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
// Closed, MaxLen and Checkpoint are read by MinePerClass's itemset
// miner only; every other field configures PerClass.Run, the loop all
// pattern types share.
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
	// partition and per run. Nil disables logging.
	Log *slog.Logger
	// Workers bounds the per-class mining fan-out (0 = GOMAXPROCS,
	// 1 = sequential). Class partitions are independent (Section 3.1),
	// so they mine concurrently, each at the full budget; the union is
	// merged in class order by one code path for every worker count.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection: one
	// mine.partition hit per class partition, plus Mine's own
	// mine.grow entry point. Nil is free.
	Faults *faults.Registry
	// Checkpoint, when non-nil, persists each class partition's raw
	// pattern stream, keyed by (class, MaxPatterns), and replays it on a
	// later run at any worker count, skipping the enumeration; the
	// resumed union is byte-identical to an uninterrupted one.
	Checkpoint PartitionCheckpoint
}

// PartitionCheckpoint persists per-class partition results for
// checkpoint/resume of long mining runs. Implementations must be safe
// for concurrent use (partitions mine in parallel). The cap is always
// the run's full budget, MaxPatterns.
type PartitionCheckpoint interface {
	// Load returns the previously saved raw pattern stream for
	// (class, cap), or ok=false when none exists.
	Load(class, cap int) (ps []Pattern, ok bool)
	// Save persists the raw pattern stream for (class, cap). Errors
	// abort the mining run — a checkpoint that cannot be written must
	// not be silently skipped, or a crash would replay differently.
	Save(class, cap int, ps []Pattern) error
}

// Partition is one class partition's mining job: its class, absolute
// min_sup (the relative one times its row count, rounded, at least 1)
// and the run's full budget (0 = unlimited), with a fork of the run's
// guard and a fork of its observer whose open span is Span, the
// partition's "mine-class" span.
type Partition struct {
	Class, MinSupport, MaxPatterns int

	Guard *guard.Guard
	Obs   *obs.Observer
	Span  *obs.Span
}

// PerClass is the paper's per-class mining step for a pattern type P:
// itemsets (MinePerClass), sequences and graphs (internal/patclass)
// all run it.
type PerClass[P any] struct {
	// Sizes[c] is the row count of class partition c; empty ones are
	// not mined.
	Sizes []int
	// Mine mines one partition and returns its raw pattern stream. The
	// stream must not depend on worker counts or map order, and it must
	// fail with ErrPatternBudget on the attempt to emit pattern
	// MaxPatterns+1, so that a run capped at k is the first k patterns
	// of an uncapped one: the merge replays smaller caps by truncation.
	Mine func(Partition) ([]P, error)
	// Key deduplicates patterns across classes; Len, a pattern's
	// length, is read only when MinLen > 1.
	Key func(*P) string
	Len func(*P) int
}

// Run mines every non-empty class partition with the relative min_sup
// and returns the deduplicated union of the streams, or the union
// merged so far with the first error.
//
// The partitions mine through parallel.ForEach, each at the full
// budget; with one worker that is the plain class-order loop. The
// streams merge in class order, replaying the budget a sequential run
// leaves each class, remaining = budget − |union so far|: a longer
// stream is truncated to it and the run fails with ErrPatternBudget,
// as does a class that finds nothing left. The kept prefix drops
// patterns shorter than MinLen, then repeated keys. So the union and
// the sentinel that trips are the same at any worker count.
func (pc PerClass[P]) Run(opt PerClassOptions) ([]P, error) {
	if opt.MinSupport <= 0 || opt.MinSupport > 1 {
		return nil, fmt.Errorf("mining: relative MinSupport = %v, want (0,1]", opt.MinSupport)
	}
	// Fail fast on a pre-canceled context before any partition work.
	if err := opt.Guard.CheckNow(); err != nil {
		return nil, err
	}
	var classes []int
	for c, n := range pc.Sizes {
		if n > 0 {
			classes = append(classes, c)
		}
	}
	// A class that errors stops further classes from being claimed;
	// every lower-indexed class ran to completion, which is all the
	// merge consumes.
	type classResult struct {
		ps  []P
		err error
	}
	results := make([]classResult, len(classes))
	perr := parallel.ForEach(opt.Workers, len(classes), func(k int) error {
		ps, err := pc.mineClass(classes[k], opt)
		results[k] = classResult{ps: ps, err: err}
		return err
	})
	var pe *parallel.PanicError
	if errors.As(perr, &pe) {
		return nil, perr
	}

	budget := opt.MaxPatterns
	seen := map[string]bool{}
	var union []P
	dedupDropped := opt.Obs.Counter("mine.dedup_dropped")
	minlenDropped := opt.Obs.Counter("mine.minlen_dropped")
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
		for i := range ps {
			p := &ps[i]
			if opt.MinLen > 1 && pc.Len(p) < opt.MinLen {
				minlenDropped.Inc()
				continue
			}
			key := pc.Key(p)
			if seen[key] {
				dedupDropped.Inc()
				continue
			}
			seen[key] = true
			union = append(union, *p)
		}
		if err != nil {
			return union, err
		}
	}
	opt.Obs.Counter("mine.patterns_union").Add(int64(len(union)))
	if opt.Log != nil {
		opt.Log.Debug("per-class mining done",
			slog.Float64("min_sup", opt.MinSupport),
			slog.Int("union", len(union)))
	}
	return union, nil
}

// mineClass mines class c at the full budget under its own guard and
// observer forks, inside its "mine-class" span.
func (pc PerClass[P]) mineClass(c int, opt PerClassOptions) ([]P, error) {
	if err := opt.Faults.Hit(faults.MinePartition); err != nil {
		return nil, fmt.Errorf("mining: class %d partition: %w", c, err)
	}
	rows := pc.Sizes[c]
	abs := max(int(opt.MinSupport*float64(rows)+0.5), 1)
	o := opt.Obs.Fork()
	sp := o.Start("mine-class").
		Attr("class", c).Attr("rows", rows).Attr("abs_min_sup", abs)
	ps, err := pc.Mine(Partition{
		Class:       c,
		MinSupport:  abs,
		MaxPatterns: opt.MaxPatterns,
		Guard:       opt.Guard.Fork(),
		Obs:         o,
		Span:        sp,
	})
	sp.Attr("patterns", len(ps)).End()
	if opt.Log != nil {
		opt.Log.Debug("class partition mined",
			slog.Int("class", c),
			slog.Int("rows", rows),
			slog.Int("abs_min_sup", abs),
			slog.Int("patterns", len(ps)))
	}
	return ps, err
}

// MinePerClass partitions the binary dataset by class, mines each
// partition's closed (or all) frequent itemsets with PerClass.Run, and
// returns the deduplicated union F, sorted by SortPatterns. Each union
// pattern carries its coverage bitmap over all of b (Pattern.Cover):
// Support is its count, the global absolute support, and per-class
// supports are its intersections with b.ClassMasks, which is how the
// measures package and MMRFS consume it.
func MinePerClass(b *dataset.Binary, opt PerClassOptions) ([]Pattern, error) {
	sizes := make([]int, b.NumClasses())
	for c := range sizes {
		sizes[c] = b.ClassMasks[c].Count()
	}
	union, err := PerClass[Pattern]{
		Sizes: sizes,
		// Replay the partition's checkpoint, or mine its item columns
		// projected onto its rows.
		Mine: func(pt Partition) ([]Pattern, error) {
			if opt.Checkpoint != nil {
				if ps, ok := opt.Checkpoint.Load(pt.Class, pt.MaxPatterns); ok {
					pt.Span.Attr("restored", true)
					return ps, nil
				}
			}
			rows := b.ClassMasks[pt.Class].Indices()
			cols := make([]*bitset.Bitset, len(b.Columns))
			for i := range cols {
				cols[i] = bitset.New(len(rows))
			}
			for k, r := range rows {
				for _, it := range b.Rows[r] {
					cols[it].Set(k)
				}
			}
			ps, err := Mine(cols, Options{
				MinSupport:  pt.MinSupport,
				MaxLen:      opt.MaxLen,
				MaxPatterns: pt.MaxPatterns,
				Closed:      opt.Closed,
				Guard:       pt.Guard,
				Obs:         pt.Obs,
				Log:         opt.Log,
				Faults:      opt.Faults,
			})
			// Only clean partitions checkpoint: a budget-tripped or
			// canceled stream is partial and must be re-mined on resume.
			if err == nil && opt.Checkpoint != nil {
				if cerr := opt.Checkpoint.Save(pt.Class, pt.MaxPatterns, ps); cerr != nil {
					err = fmt.Errorf("mining: class %d checkpoint: %w", pt.Class, cerr)
				}
			}
			return ps, err
		},
		Key: (*Pattern).Key,
		Len: (*Pattern).Len,
	}.Run(opt)
	for i := range union {
		union[i].cover = b.Cover(union[i].Items)
		union[i].Support = union[i].cover.Count()
	}
	if err != nil {
		return union, err
	}
	SortPatterns(union)
	return union, nil
}

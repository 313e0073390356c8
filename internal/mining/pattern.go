// Package mining implements the paper's feature-generation step: each
// class partition is mined for closed frequent patterns (the paper uses
// FPClose [Grahne & Zhu, FIMI'03]; Mine computes the same sets with
// LCM's closure extension over item-cover bitmaps), and MinePerClass
// merges the partitions into one pool. Mine can also enumerate all
// frequent patterns, which the closed-vs-all ablation compares against.
package mining

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"dfpc/internal/bitset"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// ErrPatternBudget is returned when a miner exceeds Options.MaxPatterns.
// The scalability experiments (Tables 3–5) use it to mark min_sup
// settings whose enumeration is infeasible, mirroring the paper's "N/A"
// rows at min_sup = 1.
var ErrPatternBudget = errors.New("mining: pattern budget exceeded")

// ErrDeadline is returned when a miner runs past its guard's deadline
// (a stage timeout or a context deadline). Like ErrPatternBudget it marks an
// enumeration as infeasible; the partial pattern set found so far is
// still returned. It is an alias for guard.ErrDeadline so errors.Is
// works across both packages.
var ErrDeadline = guard.ErrDeadline

// Pattern is a frequent itemset together with its absolute support in
// the mined transaction set.
type Pattern struct {
	Items   []int32 // sorted ascending
	Support int

	// cover is the row-coverage bitmap MinePerClass's merge builds to
	// count the global support. Unexported, so gob skips it: snapshots
	// and checkpoints never carry training-row state.
	cover *bitset.Bitset
}

// Cover returns the pattern's coverage bitmap over the rows of the
// dataset MinePerClass mined it from (bit r set iff row r contains
// every item; Count() == Support). It is nil for patterns that did not
// come out of MinePerClass and after ReleaseCovers. Callers must treat
// it as read-only: the bitmap is shared by every copy of the pattern.
func (p Pattern) Cover() *bitset.Bitset { return p.cover }

// ReleaseCovers drops the coverage bitmaps of ps in place, for callers
// that keep patterns past the training data they were mined from.
func ReleaseCovers(ps []Pattern) {
	for i := range ps {
		ps[i].cover = nil
	}
}

// Len returns the number of items in the pattern.
func (p Pattern) Len() int { return len(p.Items) }

// Key returns a canonical string key for the itemset, used for
// deduplication across per-class mining runs.
func (p Pattern) Key() string {
	b := make([]byte, 0, 4*len(p.Items))
	for _, it := range p.Items {
		b = append(b, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(b)
}

func (p Pattern) String() string {
	return fmt.Sprintf("%v:%d", p.Items, p.Support)
}

// Options configures a mining run.
type Options struct {
	// MinSupport is the absolute minimum support count (≥ 1).
	MinSupport int
	// MaxPatterns aborts the run with ErrPatternBudget once more than
	// this many patterns have been produced. 0 means unlimited.
	MaxPatterns int
	// MaxLen caps pattern length; 0 means unlimited. With Closed the
	// result is the closed frequent sets of length ≤ MaxLen.
	MaxLen int
	// Closed mines closed patterns; false mines all frequent patterns.
	Closed bool
	// Guard, when non-nil, bounds the run: Mine polls it once per
	// extension and aborts with an error wrapping
	// guard.ErrCanceled, guard.ErrDeadline, or guard.ErrMemoryLimit.
	// The caller builds it (guard.New); nil costs nothing.
	Guard *guard.Guard
	// Obs, when non-nil, receives mining vitals: patterns emitted,
	// support tests (mine.extensions), failed closure-extension tests
	// (mine.subsumption_pruned), per-depth search-space counters. Nil
	// disables recording at no cost.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per
	// mining run (closed, min_sup, patterns found). Nil — the
	// default — disables logging at the cost of one nil check.
	Log *slog.Logger
	// Faults, when non-nil, enables deterministic fault injection at
	// the miner's entry (point mine.grow). Nil is free.
	Faults *faults.Registry
}

func (o Options) validate() error {
	if o.MinSupport < 1 {
		return fmt.Errorf("mining: MinSupport = %d, want >= 1", o.MinSupport)
	}
	if o.MaxPatterns < 0 || o.MaxLen < 0 {
		return fmt.Errorf("mining: negative limit")
	}
	return nil
}

// SortPatterns orders patterns by descending support, then ascending
// length, then lexicographic items — a stable canonical order for tests
// and reports.
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := range a.Items {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return false
	})
}

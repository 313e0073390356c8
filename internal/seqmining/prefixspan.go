// Package seqmining implements frequent sequential-pattern mining with
// PrefixSpan (Pei et al., ICDE'01 — reference [16] of the paper) and a
// sequence classification pipeline built on it. The paper's conclusion
// names sequences as the first extension target of the framework ("The
// framework is also applicable to more complex patterns, including
// sequences and graphs"); this package realizes that extension: mine
// frequent subsequences per class, select discriminative ones with
// MMRFS, and train a linear SVM on the binary presence features.
package seqmining

import (
	"fmt"
	"sort"

	"dfpc/internal/guard"
	"dfpc/internal/mining"
)

// Sequence is an ordered list of events (single items per element; the
// itemset-element generalization is not needed for the classification
// use case here).
type Sequence []int32

// Pattern is a frequent subsequence with its absolute support.
type Pattern struct {
	Events  []int32
	Support int
}

// Len returns the pattern length.
func (p Pattern) Len() int { return len(p.Events) }

// Key returns a canonical map key.
func (p Pattern) Key() string {
	b := make([]byte, 0, 4*len(p.Events))
	for _, e := range p.Events {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(b)
}

func (p Pattern) String() string {
	return fmt.Sprintf("%v:%d", p.Events, p.Support)
}

// ErrPatternBudget is mining.ErrPatternBudget: the per-class loop and
// its callers dispatch on the one budget sentinel.
var ErrPatternBudget = mining.ErrPatternBudget

// Options configures a PrefixSpan run.
type Options struct {
	// MinSupport is the absolute minimum support (≥ 1).
	MinSupport int
	// MaxLen caps pattern length (0 = unlimited).
	MaxLen int
	// MaxPatterns aborts with ErrPatternBudget (0 = unlimited).
	MaxPatterns int
	// Guard, when non-nil, bounds the run: it is polled once per
	// emitted pattern. Nil costs nothing.
	Guard *guard.Guard
}

// PrefixSpan mines all frequent subsequences of the database. A
// sequence supports a pattern if the pattern's events occur in order
// (gaps allowed). Patterns are returned in depth-first discovery
// order, so a run capped at k patterns returns the first k patterns of
// an uncapped one, with ErrPatternBudget. A guard stop returns the
// patterns found so far with the guard's error.
func PrefixSpan(db []Sequence, opt Options) ([]Pattern, error) {
	if opt.MinSupport < 1 {
		return nil, fmt.Errorf("seqmining: MinSupport = %d, want >= 1", opt.MinSupport)
	}
	if err := opt.Guard.CheckNow(); err != nil {
		return nil, err
	}
	m := &spanMiner{opt: opt}
	// Initial projected database: every sequence from position 0.
	proj := make([]projection, len(db))
	for i := range db {
		proj[i] = projection{seq: i, pos: 0}
	}
	err := m.mine(db, proj, nil)
	return m.out, err
}

// projection marks a suffix of one database sequence: events from pos.
type projection struct {
	seq int
	pos int
}

type spanMiner struct {
	opt Options
	out []Pattern
}

func (m *spanMiner) mine(db []Sequence, proj []projection, prefix []int32) error {
	// Count, per event, the projected sequences whose suffix contains it.
	counts := map[int32]int{}
	for _, pr := range proj {
		seen := map[int32]bool{}
		for _, e := range db[pr.seq][pr.pos:] {
			if !seen[e] {
				seen[e] = true
				counts[e]++
			}
		}
	}
	events := make([]int32, 0, len(counts))
	for e, c := range counts {
		if c >= m.opt.MinSupport {
			events = append(events, e)
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })

	for _, e := range events {
		newPrefix := append(append([]int32(nil), prefix...), e)
		if m.opt.MaxPatterns > 0 && len(m.out) >= m.opt.MaxPatterns {
			return ErrPatternBudget
		}
		if err := m.opt.Guard.Check(); err != nil {
			return err
		}
		m.out = append(m.out, Pattern{Events: newPrefix, Support: counts[e]})
		if m.opt.MaxLen > 0 && len(newPrefix) >= m.opt.MaxLen {
			continue
		}
		// Project: advance each supporting sequence past its first
		// occurrence of e.
		var next []projection
		for _, pr := range proj {
			s := db[pr.seq]
			for k := pr.pos; k < len(s); k++ {
				if s[k] == e {
					if k+1 < len(s) {
						next = append(next, projection{seq: pr.seq, pos: k + 1})
					}
					break
				}
			}
		}
		if len(next) >= m.opt.MinSupport {
			if err := m.mine(db, next, newPrefix); err != nil {
				return err
			}
		}
	}
	return nil
}

// Contains reports whether seq contains pat as a subsequence (order
// preserved, gaps allowed).
func Contains(seq Sequence, pat []int32) bool {
	i := 0
	for _, e := range seq {
		if i < len(pat) && e == pat[i] {
			i++
		}
	}
	return i == len(pat)
}

// SortPatterns orders patterns canonically (support desc, length asc,
// lexicographic events).
func SortPatterns(ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Events) != len(b.Events) {
			return len(a.Events) < len(b.Events)
		}
		for k := range a.Events {
			if a.Events[k] != b.Events[k] {
				return a.Events[k] < b.Events[k]
			}
		}
		return false
	})
}

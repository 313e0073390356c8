package mining

import (
	"fmt"
	"log/slog"

	"dfpc/internal/bitset"
	"dfpc/internal/faults"
	"dfpc/internal/obs"
)

// Mine enumerates the frequent itemsets of one transaction set held in
// vertical form: cols[i] is the bitmap of the rows that contain item
// i, and every column has the same length, the row count.
//
// With opt.Closed it returns the closed frequent itemsets of length
// ≤ opt.MaxLen: sets with support ≥ opt.MinSupport and no strict
// superset of equal support. This is LCM's prefix-preserving closure
// extension (Uno, Kiyomi & Arimura, FIMI'04). The closure of a set is
// every item whose column contains its cover. An extension P ∪ {e}
// whose closure adds an item below e was already reached from an
// earlier branch and is skipped (the ppc test). Without opt.Closed it
// returns every frequent itemset of length ≤ opt.MaxLen: the same
// depth-first loop without the closure step.
//
// Patterns come in depth-first order, which does not depend on worker
// counts or map order, so a run capped at k patterns is the first k
// patterns of an uncapped one. It returns ErrPatternBudget, with the
// patterns found so far, on the attempt to emit pattern
// opt.MaxPatterns+1.
func Mine(cols []*bitset.Bitset, opt Options) ([]Pattern, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.Faults.Hit(faults.MineGrow); err != nil {
		return nil, fmt.Errorf("mining: mine: %w", err)
	}
	if err := opt.Guard.CheckNow(); err != nil {
		return nil, err
	}
	m := &lcm{
		opt:        opt,
		cols:       cols,
		extensions: opt.Obs.Counter("mine.extensions"),
		emitted:    opt.Obs.Counter("mine.patterns_emitted"),
		pruned:     opt.Obs.Counter("mine.subsumption_pruned"),
		ss:         newSearchSpace(opt.Obs),
	}
	err := m.run()
	if opt.Log != nil {
		attrs := []any{slog.Bool("closed", opt.Closed), slog.Int("min_sup", opt.MinSupport),
			slog.Int("patterns", len(m.out))}
		if err != nil {
			opt.Log.Debug("mining run stopped", append(attrs, slog.String("err", err.Error()))...)
		} else {
			opt.Log.Debug("mining run done", attrs...)
		}
	}
	return m.out, err
}

// lcm is one Mine run. Scratch is per recursion depth, so a run
// allocates O(depth) bitmaps besides its output.
type lcm struct {
	opt  Options
	cols []*bitset.Bitset
	freq []int32 // items with support ≥ MinSupport, ascending
	sup  []int   // sup[i] = |cols[i]|
	out  []Pattern

	covs  []*bitset.Bitset // covs[d]: the cover of the extension tried at depth d
	items [][]int32        // items[d]: its closure

	// metric hooks; all nil-safe no-ops when observability is off
	extensions *obs.Counter
	emitted    *obs.Counter
	pruned     *obs.Counter
	ss         searchSpace
}

func (m *lcm) run() error {
	if len(m.cols) == 0 {
		return nil
	}
	n := m.cols[0].Len()
	if n < m.opt.MinSupport {
		return nil
	}
	// The root closure: the items in every row (none when not closed).
	var root []int32
	m.sup = make([]int, len(m.cols))
	for i, c := range m.cols {
		m.sup[i] = c.Count()
		if m.sup[i] >= m.opt.MinSupport {
			m.freq = append(m.freq, int32(i))
			if m.opt.Closed && m.sup[i] == n {
				root = append(root, int32(i))
			}
		}
	}
	if len(root) > 0 {
		m.ss.candidates.inc(len(root))
		if m.tooLong(root) {
			return nil // every closed set contains the root
		}
		if err := m.emit(root, n); err != nil {
			return err
		}
	}
	all := bitset.New(n)
	all.SetAll()
	return m.grow(root, all, 0, 0)
}

// grow tries every extension p ∪ {freq[k]}, k ≥ from, of the set p
// with cover cov, emits each that survives, and descends from it.
func (m *lcm) grow(p []int32, cov *bitset.Bitset, from, depth int) error {
	if depth == len(m.covs) {
		m.covs = append(m.covs, bitset.New(cov.Len()))
		m.items = append(m.items, nil)
	}
	next := m.covs[depth]
	in := 0 // p[:in] < the current extension
	for k := from; k < len(m.freq); k++ {
		e := m.freq[k]
		for in < len(p) && p[in] < e {
			in++
		}
		if in < len(p) && p[in] == e {
			continue
		}
		if err := m.opt.Guard.Check(); err != nil {
			return err
		}
		m.extensions.Inc()
		sup := next.AndOf(cov, m.cols[e])
		if sup < m.opt.MinSupport {
			continue
		}
		q, ok := m.closure(p, next, e, sup, depth)
		if !ok {
			m.pruned.Inc()
			m.ss.candidates.inc(len(p) + 1)
			m.ss.subsumed.inc(len(p) + 1)
			continue
		}
		m.ss.candidates.inc(len(q))
		if m.tooLong(q) {
			continue
		}
		if err := m.emit(q, sup); err != nil {
			return err
		}
		if m.opt.MaxLen > 0 && len(q) == m.opt.MaxLen {
			continue
		}
		if err := m.grow(q, next, k+1, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// closure returns p ∪ {e} plus, when mining closed sets, every other
// item whose column contains cov (the extension's cover, of count sup),
// in ascending order. ok is false when that adds an item below e: the
// closure is then reached from the branch of that smaller item.
func (m *lcm) closure(p []int32, cov *bitset.Bitset, e int32, sup, depth int) (q []int32, ok bool) {
	q = m.items[depth][:0]
	if !m.opt.Closed {
		q = append(append(q, p...), e)
		m.items[depth] = q
		return q, true
	}
	in := 0
	for _, j := range m.freq {
		switch {
		case in < len(p) && p[in] == j:
			in++
		case j != e && (m.sup[j] < sup || !cov.SubsetOf(m.cols[j])):
			continue
		case j < e:
			return nil, false
		}
		q = append(q, j)
	}
	m.items[depth] = q
	return q, true
}

func (m *lcm) tooLong(q []int32) bool {
	return m.opt.MaxLen > 0 && len(q) > m.opt.MaxLen
}

// emit records one pattern, copying its items. It refuses the pattern
// and returns ErrPatternBudget once MaxPatterns are out.
func (m *lcm) emit(items []int32, support int) error {
	if m.opt.MaxPatterns > 0 && len(m.out) >= m.opt.MaxPatterns {
		m.ss.budget.inc(len(items))
		return ErrPatternBudget
	}
	m.out = append(m.out, Pattern{Items: append([]int32(nil), items...), Support: support})
	m.emitted.Inc()
	m.ss.emitted.inc(len(items))
	return nil
}

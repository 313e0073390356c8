package mining

import (
	"sort"

	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// FPGrowth mines all frequent itemsets with absolute support ≥
// opt.MinSupport from the transactions (Han, Pei & Yin, SIGMOD'00). It
// returns patterns in no particular order; use SortPatterns for a
// canonical order. It returns ErrPatternBudget when opt.MaxPatterns is
// exceeded, together with the patterns found so far.
func FPGrowth(tx [][]int32, opt Options) ([]Pattern, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.hitEntry("fpgrowth"); err != nil {
		return nil, err
	}
	w := make([]int, len(tx))
	for i := range w {
		w[i] = 1
	}
	m := &growthMiner{
		opt:     opt,
		g:       opt.Guard,
		nodes:   opt.Obs.Counter("mine.fptree_nodes"),
		emitted: opt.Obs.Counter("mine.patterns_emitted"),
		ss:      newSearchSpace(opt.Obs),
	}
	if err := m.g.CheckNow(); err != nil {
		return nil, err
	}
	tree := buildTree(tx, w, opt.MinSupport, m.nodes)
	err := m.mine(tree, nil)
	opt.logDone("fpgrowth", len(m.out), err)
	return m.out, err
}

type growthMiner struct {
	opt Options
	out []Pattern
	g   *guard.Guard

	nodes   *obs.Counter
	emitted *obs.Counter
	ss      searchSpace
}

// emit records one pattern; prefix is in discovery order and gets
// sorted into canonical ascending-item order on copy. Every call is
// one candidate considered; FP-Growth only materializes frequent
// extensions, so the candidate either trips the budget or is emitted.
func (m *growthMiner) emit(prefix []int32, support int) error {
	m.ss.candidates.inc(len(prefix))
	if m.opt.MaxPatterns > 0 && len(m.out) >= m.opt.MaxPatterns {
		m.ss.budget.inc(len(prefix))
		return ErrPatternBudget
	}
	if err := m.g.Check(); err != nil {
		return err
	}
	items := append([]int32(nil), prefix...)
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	m.out = append(m.out, Pattern{Items: items, Support: support})
	m.emitted.Inc()
	m.ss.emitted.inc(len(items))
	return nil
}

func (m *growthMiner) mine(tree *fpTree, prefix []int32) error {
	// Cooperative cancellation at every recursion entry (see the
	// guard package's placement rule).
	if err := m.g.Check(); err != nil {
		return err
	}
	if tree.empty() {
		return nil
	}
	if path := tree.singlePath(); path != nil {
		return m.minePath(path, prefix)
	}
	for _, it := range tree.itemsAscending() {
		support := tree.counts[it]
		newPrefix := append(prefix, it)
		if err := m.emit(newPrefix, support); err != nil {
			return err
		}
		if m.opt.MaxLen > 0 && len(newPrefix) >= m.opt.MaxLen {
			continue
		}
		condTx, condW := tree.conditionalBase(it)
		condTree := buildTree(condTx, condW, m.opt.MinSupport, m.nodes)
		if err := m.mine(condTree, newPrefix); err != nil {
			return err
		}
	}
	return nil
}

// minePath enumerates every non-empty combination of a single-path
// tree's nodes; the support of a combination is the count of its
// deepest node.
func (m *growthMiner) minePath(path []*fpNode, prefix []int32) error {
	// Depth-first over include/exclude choices, tracking the deepest
	// included node's count.
	sel := make([]int32, 0, len(path))
	var rec func(i, deepestCount int) error
	rec = func(i, deepestCount int) error {
		if i == len(path) {
			if len(sel) == 0 {
				return nil
			}
			full := append(append([]int32(nil), prefix...), sel...)
			return m.emit(full, deepestCount)
		}
		// Exclude path[i].
		if err := rec(i+1, deepestCount); err != nil {
			return err
		}
		// Include path[i], unless MaxLen forbids it.
		if m.opt.MaxLen > 0 && len(prefix)+len(sel)+1 > m.opt.MaxLen {
			return nil
		}
		sel = append(sel, path[i].item)
		err := rec(i+1, path[i].count)
		sel = sel[:len(sel)-1]
		return err
	}
	return rec(0, 0)
}

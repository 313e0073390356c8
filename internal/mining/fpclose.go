package mining

import (
	"sort"

	"dfpc/internal/guard"
	"dfpc/internal/obs"
)

// FPClose mines the closed frequent itemsets: frequent itemsets with no
// strict superset of equal support. This is the miner the paper's
// feature-generation step uses ("We use FPClose [9] to generate closed
// patterns"). The implementation follows the CLOSET/FPClose family:
// FP-tree projection with
//
//   - item merging: conditional-base items whose count equals the
//     prefix support belong to the prefix closure and are hoisted into
//     it,
//   - single-path closure enumeration: a non-branching conditional tree
//     contributes one closed set per strict count drop along the path,
//   - subsumption pruning: a candidate subsumed by an already-found
//     closed pattern of equal support is skipped along with its entire
//     subtree.
//
// It returns ErrPatternBudget if opt.MaxPatterns is exceeded. If
// opt.MaxLen is set, results are closed with respect to the length-
// bounded pattern universe.
func FPClose(tx [][]int32, opt Options) ([]Pattern, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := opt.hitEntry("fpclose"); err != nil {
		return nil, err
	}
	numItems := 0
	for _, t := range tx {
		for _, it := range t {
			if int(it) >= numItems {
				numItems = int(it) + 1
			}
		}
	}
	w := make([]int, len(tx))
	for i := range w {
		w[i] = 1
	}
	m := &closeMiner{
		opt:      opt,
		numItems: numItems,
		index:    map[int][]itemMask{},
		g:        opt.Guard,
		nodes:    opt.Obs.Counter("mine.fptree_nodes"),
		emitted:  opt.Obs.Counter("mine.patterns_emitted"),
		subsumed: opt.Obs.Counter("mine.subsumption_pruned"),
		ss:       newSearchSpace(opt.Obs),
	}
	if err := m.g.CheckNow(); err != nil {
		return nil, err
	}
	tree := buildTree(tx, w, opt.MinSupport, m.nodes)
	err := m.mine(tree, nil)
	opt.logDone("fpclose", len(m.out), err)
	return m.out, err
}

type closeMiner struct {
	opt      Options
	numItems int
	index    map[int][]itemMask // support → masks of closed patterns found
	out      []Pattern
	g        *guard.Guard

	// metric hooks; all nil-safe no-ops when observability is off
	nodes    *obs.Counter
	emitted  *obs.Counter
	subsumed *obs.Counter
	ss       searchSpace
}

// isSubsumed reports whether items (with the given support) is a subset
// of an already-found closed pattern with the same support.
func (m *closeMiner) isSubsumed(items []int32, support int) bool {
	mask := maskOf(items, m.numItems)
	for _, y := range m.index[support] {
		if mask.subsetOf(y) {
			return true
		}
	}
	return false
}

// emit records a closed pattern and indexes it. Callers must have
// already established non-subsumption.
func (m *closeMiner) emit(items []int32, support int) error {
	if m.opt.MaxPatterns > 0 && len(m.out) >= m.opt.MaxPatterns {
		m.ss.budget.inc(len(items))
		return ErrPatternBudget
	}
	if err := m.g.Check(); err != nil {
		return err
	}
	sorted := append([]int32(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	m.out = append(m.out, Pattern{Items: sorted, Support: support})
	m.index[support] = append(m.index[support], maskOf(sorted, m.numItems))
	m.emitted.Inc()
	m.ss.emitted.inc(len(sorted))
	return nil
}

func (m *closeMiner) mine(tree *fpTree, prefix []int32) error {
	// Cooperative cancellation at every recursion entry: subsumption-
	// pruned subtrees emit nothing, so an emit-only check could run a
	// long time between polls.
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
		candidate := append(append([]int32(nil), prefix...), it)
		condTx, condW := tree.conditionalBase(it)

		// Item merging: conditional-base items occurring in every
		// transaction that contains the candidate are part of its
		// closure.
		condCounts := map[int32]int{}
		for i, t := range condTx {
			for _, cit := range t {
				condCounts[cit] += condW[i]
			}
		}
		// Append closure items in item order, not map order: the item
		// sequence is part of the pattern's identity downstream
		// (subsumption keys, emitted output).
		merged := map[int32]bool{}
		mergedItems := make([]int32, 0, len(condCounts))
		for cit := range condCounts {
			if condCounts[cit] == support {
				mergedItems = append(mergedItems, cit)
			}
		}
		sort.Slice(mergedItems, func(i, j int) bool { return mergedItems[i] < mergedItems[j] })
		for _, cit := range mergedItems {
			candidate = append(candidate, cit)
			merged[cit] = true
		}

		m.ss.candidates.inc(len(candidate))
		if m.opt.MaxLen > 0 && len(candidate) > m.opt.MaxLen {
			continue
		}
		if m.isSubsumed(candidate, support) {
			// Everything below this candidate closes into patterns
			// already discovered from the subsuming branch.
			m.subsumed.Inc()
			m.ss.subsumed.inc(len(candidate))
			continue
		}
		if err := m.emit(candidate, support); err != nil {
			return err
		}
		if m.opt.MaxLen > 0 && len(candidate) >= m.opt.MaxLen {
			continue
		}
		// Strip merged items from the conditional base before building
		// the subtree: they are now part of the prefix.
		if len(merged) > 0 {
			for i, t := range condTx {
				kept := t[:0]
				for _, cit := range t {
					if !merged[cit] {
						kept = append(kept, cit)
					}
				}
				condTx[i] = kept
			}
		}
		condTree := buildTree(condTx, condW, m.opt.MinSupport, m.nodes)
		if err := m.mine(condTree, candidate); err != nil {
			return err
		}
	}
	return nil
}

// minePath emits the closed patterns of a single-path conditional tree:
// one per position where the node count strictly drops (or at the leaf),
// consisting of the prefix plus the path items up to that position.
func (m *closeMiner) minePath(path []*fpNode, prefix []int32) error {
	for j := 0; j < len(path); j++ {
		last := j == len(path)-1
		if !last && path[j].count == path[j+1].count {
			continue
		}
		candidate := append(append([]int32(nil), prefix...), pathItems(path[:j+1])...)
		m.ss.candidates.inc(len(candidate))
		if m.opt.MaxLen > 0 && len(candidate) > m.opt.MaxLen {
			// Longer prefixes only grow; stop.
			break
		}
		support := path[j].count
		if m.isSubsumed(candidate, support) {
			m.subsumed.Inc()
			m.ss.subsumed.inc(len(candidate))
			continue
		}
		if err := m.emit(candidate, support); err != nil {
			return err
		}
	}
	return nil
}

func pathItems(path []*fpNode) []int32 {
	items := make([]int32, len(path))
	for i, n := range path {
		items[i] = n.item
	}
	return items
}

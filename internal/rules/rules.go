// Package rules implements the associative-classification baselines the
// paper positions itself against (Section 5): a CBA-style classifier
// (Liu, Hsu & Ma, KDD'98 — ordered high-confidence rules with database
// coverage pruning and a default class) and a HARMONY-style classifier
// (Wang & Karypis, SDM'05 — instance-centric selection of the
// highest-confidence covering rules, scored prediction). Both consume
// the same binary transaction encoding as the frequent-pattern
// framework, so the comparison isolates the classification strategy.
package rules

import (
	"fmt"
	"sort"

	"dfpc/internal/dataset"
	"dfpc/internal/mining"
)

// Rule is one class-association rule pattern → class.
type Rule struct {
	Items      []int32
	Class      int
	Support    int     // absolute support of pattern ∧ class
	Confidence float64 // support(pattern ∧ class) / support(pattern)

	antSupport int // support(pattern): the mined pattern's global support
}

// matches reports whether the (sorted) transaction contains every item
// of the rule's antecedent.
func (r *Rule) matches(tx []int32) bool {
	i := 0
	for _, it := range r.Items {
		for i < len(tx) && tx[i] < it {
			i++
		}
		if i >= len(tx) || tx[i] != it {
			return false
		}
		i++
	}
	return true
}

// generateRules mines closed patterns per class partition and turns
// each into the best rule it supports: pattern → argmax-class with the
// pattern's global confidence for that class.
func generateRules(b *dataset.Binary, minSupport float64, minConf float64, maxLen, maxPatterns int) ([]Rule, error) {
	ps, err := mining.MinePerClass(b, mining.PerClassOptions{
		MinSupport:  minSupport,
		Closed:      true,
		MaxLen:      maxLen,
		MaxPatterns: maxPatterns,
	})
	if err != nil {
		return nil, err
	}
	var out []Rule
	for _, p := range ps {
		cover, total := p.Cover(), p.Support
		if total == 0 {
			continue
		}
		for c, mask := range b.ClassMasks {
			hit := cover.AndCount(mask)
			if hit == 0 {
				continue
			}
			conf := float64(hit) / float64(total)
			if conf < minConf {
				continue
			}
			out = append(out, Rule{Items: p.Items, Class: c, Support: hit, Confidence: conf, antSupport: total})
		}
	}
	return out, nil
}

// sortRules orders rules by the CBA precedence: confidence desc,
// support desc, antecedent length asc, then lexicographic items for
// determinism.
func sortRules(rs []Rule) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := 0; k < len(a.Items); k++ {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return a.Class < b.Class
	})
}

// CBAOptions configures TrainCBA.
type CBAOptions struct {
	// MinSupport is the relative per-class mining support (default 0.05).
	MinSupport float64
	// MinConfidence filters rules (default 0.5).
	MinConfidence float64
	// MaxLen caps antecedent length (0 = unlimited).
	MaxLen int
	// MaxPatterns caps the mined pool (0 = unlimited).
	MaxPatterns int
}

func (o CBAOptions) withDefaults() CBAOptions {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.05
	}
	if o.MinConfidence <= 0 {
		o.MinConfidence = 0.5
	}
	return o
}

// CBAModel is an ordered rule list with a default class.
type CBAModel struct {
	Rules        []Rule
	DefaultClass int
}

// TrainCBA builds a CBA-style classifier on the binary training data.
func TrainCBA(b *dataset.Binary, opt CBAOptions) (*CBAModel, error) {
	if b.NumRows() == 0 {
		return nil, fmt.Errorf("rules: empty training set")
	}
	opt = opt.withDefaults()
	rs, err := generateRules(b, opt.MinSupport, opt.MinConfidence, opt.MaxLen, opt.MaxPatterns)
	if err != nil {
		return nil, err
	}
	sortRules(rs)

	// Database coverage: keep a rule iff it correctly classifies at
	// least one still-uncovered instance; covered instances drop out.
	covered := make([]bool, b.NumRows())
	remaining := b.NumRows()
	var kept []Rule
	for _, r := range rs {
		if remaining == 0 {
			break
		}
		used := false
		for i := 0; i < b.NumRows(); i++ {
			if covered[i] || b.Labels[i] != r.Class {
				continue
			}
			if r.matches(b.Rows[i]) {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		kept = append(kept, r)
		for i := 0; i < b.NumRows(); i++ {
			if !covered[i] && r.matches(b.Rows[i]) {
				covered[i] = true
				remaining--
			}
		}
	}

	// Default class: majority among uncovered instances, falling back
	// to the global majority.
	counts := make([]int, b.NumClasses())
	any := false
	for i, c := range covered {
		if !c {
			counts[b.Labels[i]]++
			any = true
		}
	}
	if !any {
		for _, y := range b.Labels {
			counts[y]++
		}
	}
	def := 0
	for c := range counts {
		if counts[c] > counts[def] {
			def = c
		}
	}
	return &CBAModel{Rules: kept, DefaultClass: def}, nil
}

// Predict classifies one sorted transaction with the first matching
// rule, or the default class.
func (m *CBAModel) Predict(tx []int32) int {
	for i := range m.Rules {
		if m.Rules[i].matches(tx) {
			return m.Rules[i].Class
		}
	}
	return m.DefaultClass
}

// HarmonyOptions configures TrainHarmony.
type HarmonyOptions struct {
	// MinSupport is the relative per-class mining support (default 0.05).
	MinSupport float64
	// TopK is how many of the highest-confidence covering rules are
	// retained per training instance and summed at prediction time
	// (default 5).
	TopK int
	// MaxLen caps antecedent length (0 = unlimited).
	MaxLen int
	// MaxPatterns caps the mined pool (0 = unlimited).
	MaxPatterns int
}

func (o HarmonyOptions) withDefaults() HarmonyOptions {
	if o.MinSupport <= 0 {
		o.MinSupport = 0.05
	}
	if o.TopK <= 0 {
		o.TopK = 5
	}
	return o
}

// HarmonyModel scores classes by the confidence of their best matching
// rules.
type HarmonyModel struct {
	Rules        []Rule
	TopK         int
	DefaultClass int
	numClasses   int
}

// TrainHarmony builds a HARMONY-style classifier: for every training
// instance, the TopK highest-confidence rules that cover it and predict
// its class are guaranteed into the rule set.
func TrainHarmony(b *dataset.Binary, opt HarmonyOptions) (*HarmonyModel, error) {
	if b.NumRows() == 0 {
		return nil, fmt.Errorf("rules: empty training set")
	}
	opt = opt.withDefaults()
	rs, err := generateRules(b, opt.MinSupport, 0.0001, opt.MaxLen, opt.MaxPatterns)
	if err != nil {
		return nil, err
	}
	sortRules(rs)

	// Instance-centric selection: walk rules in precedence order; keep
	// a rule if some instance of its class that it covers still needs
	// rules (has fewer than TopK kept covering rules).
	need := make([]int, b.NumRows())
	for i := range need {
		need[i] = opt.TopK
	}
	keep := make([]bool, len(rs))
	for ri := range rs {
		r := &rs[ri]
		for i := 0; i < b.NumRows(); i++ {
			if b.Labels[i] != r.Class || need[i] == 0 {
				continue
			}
			if r.matches(b.Rows[i]) {
				keep[ri] = true
				break
			}
		}
		if keep[ri] {
			for i := 0; i < b.NumRows(); i++ {
				if b.Labels[i] == r.Class && need[i] > 0 && r.matches(b.Rows[i]) {
					need[i]--
				}
			}
		}
	}
	var kept []Rule
	for ri, k := range keep {
		if k {
			kept = append(kept, rs[ri])
		}
	}

	counts := make([]int, b.NumClasses())
	for _, y := range b.Labels {
		counts[y]++
	}
	def := 0
	for c := range counts {
		if counts[c] > counts[def] {
			def = c
		}
	}
	return &HarmonyModel{Rules: kept, TopK: opt.TopK, DefaultClass: def, numClasses: b.NumClasses()}, nil
}

// Predict scores each class by the sum of the TopK highest confidences
// among its matching rules and returns the argmax (default class when
// nothing matches).
func (m *HarmonyModel) Predict(tx []int32) int {
	// Rules are kept in precedence (confidence-descending) order, so
	// the first TopK matches per class are the highest-confidence ones.
	scores := make([]float64, m.numClasses)
	taken := make([]int, m.numClasses)
	matchedAny := false
	for i := range m.Rules {
		r := &m.Rules[i]
		if taken[r.Class] >= m.TopK {
			continue
		}
		if r.matches(tx) {
			scores[r.Class] += r.Confidence
			taken[r.Class]++
			matchedAny = true
		}
	}
	if !matchedAny {
		return m.DefaultClass
	}
	best := 0
	for c := 1; c < m.numClasses; c++ {
		if scores[c] > scores[best] {
			best = c
		}
	}
	return best
}

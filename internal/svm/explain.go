package svm

// Per-prediction explanations: the one-vs-one voting broken open so a
// caller can see which binary decisions drove the predicted class and —
// for linear kernels, where the decision function is additive over the
// row's features — how much each present feature contributed. For a
// linear pair, f(x) = b + Σ_i coef_i·|sv_i ∩ x| = b + Σ_{f∈x} w_f with
// w_f = Σ_{i: f∈sv_i} coef_i, so the per-feature shares plus the bias
// reconstruct the decision value exactly. Non-linear kernels have no
// such additive decomposition; their pairs report the decision value
// and bias only.

// PairDecision is one binary subproblem's contribution to a
// prediction.
type PairDecision struct {
	// Classes is the (a, b) class-index pair, a < b; Decision > 0 votes
	// for a, otherwise b.
	Classes  [2]int  `json:"classes"`
	Decision float64 `json:"decision"`
	Bias     float64 `json:"bias"`
	// FeatureContrib maps each feature present in the row to its
	// additive share of Decision − Bias. Linear kernel only; nil for
	// RBF pairs.
	FeatureContrib map[int32]float64 `json:"feature_contrib,omitempty"`
}

// Explanation is the full evidence behind one Predict call.
type Explanation struct {
	// Class is the predicted class (identical to Predict's return).
	Class int `json:"class"`
	// Votes counts one-vs-one votes per class (nil for degenerate
	// single-class models).
	Votes []int `json:"votes,omitempty"`
	// Pairs lists every binary decision in canonical pair order.
	Pairs []PairDecision `json:"pairs,omitempty"`
	// FeatureWeights maps each feature present in the row to its summed
	// signed contribution toward the predicted class, over the linear
	// pairs that involve that class (positive = evidence for the
	// prediction). Nil when no linear pair involves the predicted
	// class.
	FeatureWeights map[int32]float64 `json:"feature_weights,omitempty"`
}

// ExplainPredict classifies one sparse binary row exactly like Predict
// while recording the per-pair decisions and, for linear kernels, the
// per-feature weight contributions.
func (m *Model) ExplainPredict(x []int32) *Explanation {
	if m.singleClass >= 0 {
		return &Explanation{Class: m.singleClass}
	}
	ex := &Explanation{
		Votes: make([]int, m.numClasses),
		Pairs: make([]PairDecision, 0, len(m.pairs)),
	}
	score := make([]float64, m.numClasses)
	for k, bm := range m.pairs {
		d := bm.decision(x)
		a, b := m.pairClass[k][0], m.pairClass[k][1]
		pd := PairDecision{Classes: [2]int{a, b}, Decision: d, Bias: bm.bias}
		if bm.kernel.Type == Linear {
			pd.FeatureContrib = bm.linearContrib(x)
		}
		ex.Pairs = append(ex.Pairs, pd)
		if d > 0 {
			ex.Votes[a]++
			score[a] += d
		} else {
			ex.Votes[b]++
			score[b] -= d
		}
	}
	best := ovoWinner(ex.Votes, score, -1)
	ex.Class = best

	// Aggregate the winner's evidence: sum each present feature's signed
	// contribution toward the predicted class over the linear pairs that
	// include it.
	for _, pd := range ex.Pairs {
		if pd.FeatureContrib == nil {
			continue
		}
		sign := 0.0
		switch best {
		case pd.Classes[0]:
			sign = 1
		case pd.Classes[1]:
			sign = -1
		default:
			continue
		}
		if ex.FeatureWeights == nil {
			ex.FeatureWeights = make(map[int32]float64, len(pd.FeatureContrib))
		}
		for f, w := range pd.FeatureContrib {
			ex.FeatureWeights[f] += sign * w
		}
	}
	return ex
}

// linearContrib returns, for each feature present in x, its additive
// share of the linear decision value: w_f = Σ over support vectors
// containing f of that vector's coefficient.
func (m *binaryModel) linearContrib(x []int32) map[int32]float64 {
	contrib := make(map[int32]float64, len(x))
	for i, sv := range m.svX {
		coef := m.svCoef[i]
		// Merge-scan the sorted sparse vectors for their intersection.
		a, b := 0, 0
		for a < len(sv) && b < len(x) {
			switch {
			case sv[a] == x[b]:
				contrib[x[b]] += coef
				a++
				b++
			case sv[a] < x[b]:
				a++
			default:
				b++
			}
		}
	}
	return contrib
}

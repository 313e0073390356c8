package core

import (
	"context"
	"errors"

	"dfpc/internal/c45"
	"dfpc/internal/dataset"
	"dfpc/internal/svm"
)

// Per-prediction explanations: which pattern features fired on a row,
// what each contributed, and the learner's own evidence (SVM voting
// breakdown or the C4.5 decision path). This is the prediction-time
// counterpart of Explain(), which describes the fitted feature space as
// a whole.

// FiredPattern is one selected pattern feature that matched the row
// being explained.
type FiredPattern struct {
	// FeatureID is the pattern's feature ID in the fitted space
	// (numItems + pattern index).
	FeatureID int `json:"feature_id"`
	// Name renders the pattern's items, e.g. "color=red ∧ size=(2.5-5]".
	Name  string  `json:"name"`
	Items []int32 `json:"items"`
	// Support and InfoGain are the pattern's training-set statistics.
	Support  int     `json:"support"`
	InfoGain float64 `json:"info_gain"`
	// Weight is the feature's signed contribution toward the predicted
	// class from the linear-SVM decomposition (positive = evidence for
	// the prediction). Zero for non-linear kernels and other learners.
	Weight float64 `json:"weight,omitempty"`
}

// PredictionExplanation is the full evidence behind one classified row.
type PredictionExplanation struct {
	// Row is the row's index in the original dataset.
	Row int `json:"row"`
	// Class and ClassName identify the prediction.
	Class     int    `json:"class"`
	ClassName string `json:"class_name,omitempty"`
	// Items lists the kept single-item features present in the row;
	// ItemNames renders them in the same order.
	Items     []int32  `json:"items,omitempty"`
	ItemNames []string `json:"item_names,omitempty"`
	// Fired lists the pattern features that matched the row.
	Fired []FiredPattern `json:"fired,omitempty"`
	// SVM is the one-vs-one voting breakdown (SVM learners only).
	SVM *svm.Explanation `json:"svm,omitempty"`
	// Tree is the root-to-leaf decision path (C4.5 learner only).
	Tree *c45.PathResult `json:"tree,omitempty"`
}

// PredictExplain classifies the given rows exactly like PredictContext
// while recording, per row, the fired pattern features and the
// learner's decision evidence. It is introspection-only: the returned
// Class values are identical to PredictContext's at any worker count.
func (p *Pipeline) PredictExplain(ctx context.Context, d *dataset.Dataset, rows []int) ([]PredictionExplanation, error) {
	if p.model == nil {
		return nil, errors.New("core: PredictExplain before Fit")
	}
	g := p.stageGuard(ctx)
	if err := g.CheckNow(); err != nil {
		return nil, err
	}
	sp := p.cfg.Obs.Start("predict-explain").Attr("rows", len(rows))
	defer sp.End()
	bp, err := p.NewBatchPredictor()
	if err != nil {
		return nil, err
	}
	if err := bp.coder.checkSchema(d); err != nil {
		return nil, err
	}
	out := make([]PredictionExplanation, len(rows))
	lim := int32(p.numItems)
	for i, r := range rows {
		if err := g.Check(); err != nil {
			return nil, err
		}
		// The feature vector comes from the same compiled-matcher path
		// Predict scores, so the fired set below can never disagree
		// with the prediction: both are one trie walk's accept set.
		fv, err := bp.featureVector(d.Rows[r], r)
		if err != nil {
			return nil, err
		}
		ex := PredictionExplanation{Row: r}
		var fired []int // pattern indices, ascending (matcher accept order)
		for _, f := range fv {
			if f < lim {
				ex.Items = append(ex.Items, f)
				// The item space survives Fit but not Save/Load; loaded
				// pipelines explain by ID only.
				if p.space != nil {
					ex.ItemNames = append(ex.ItemNames, p.space.ItemName(int(f)))
				}
			} else {
				fired = append(fired, int(f)-p.numItems)
			}
		}
		switch m := p.model.(type) {
		case *svm.Model:
			se := m.ExplainPredict(fv)
			ex.Class = se.Class
			ex.SVM = se
		case *c45.Model:
			tp := m.PredictPath(fv)
			ex.Class = tp.Class
			ex.Tree = tp
		}
		if ex.Class >= 0 && ex.Class < len(d.Classes) {
			ex.ClassName = d.Classes[ex.Class]
		}
		for _, j := range fired {
			fp := FiredPattern{FeatureID: p.numItems + j}
			// p.report parallels p.patterns (both in SortPatterns order);
			// it is nil only for pattern-free pipelines, which never fire.
			if j < len(p.report) {
				r := p.report[j]
				fp.Name, fp.Items, fp.Support, fp.InfoGain = r.Name, r.Items, r.Support, r.InfoGain
			} else if j < len(p.patterns) {
				fp.Items = p.patterns[j].Items
			}
			if ex.SVM != nil {
				fp.Weight = ex.SVM.FeatureWeights[int32(p.numItems+j)]
			}
			ex.Fired = append(ex.Fired, fp)
		}
		out[i] = ex
	}
	return out, nil
}

package c45

// Per-prediction explanations: the root-to-leaf decision path a row
// takes through the pruned tree, each step naming the feature tested
// and which way the test went, ending in the leaf's class distribution.

// PathStep is one internal-node test on a prediction's decision path.
type PathStep struct {
	// Feature is the feature ID the node tests.
	Feature int32 `json:"feature"`
	// Present reports which branch the row took.
	Present bool `json:"present"`
}

// PathResult is the full decision path of one prediction.
type PathResult struct {
	// Class is the predicted class (identical to PredictConf's).
	Class int `json:"class"`
	// Steps lists the tests from the root to the leaf, in order. Empty
	// when the tree is a single leaf.
	Steps []PathStep `json:"steps,omitempty"`
	// LeafCounts is the leaf's training-class histogram; LeafTotal its
	// row count — together the empirical confidence of the prediction.
	LeafCounts []int `json:"leaf_counts,omitempty"`
	LeafTotal  int   `json:"leaf_total"`
}

// PredictPath classifies one sparse binary row exactly like
// PredictConf while recording the decision path.
func (m *Model) PredictPath(x []int32) *PathResult {
	res := &PathResult{}
	nd := m.root
	for nd.feature >= 0 {
		present := hasFeature(x, nd.feature)
		res.Steps = append(res.Steps, PathStep{Feature: nd.feature, Present: present})
		if present {
			nd = nd.present
		} else {
			nd = nd.absent
		}
	}
	res.Class = nd.class
	res.LeafCounts = append([]int(nil), nd.counts...)
	res.LeafTotal = nd.n
	return res
}

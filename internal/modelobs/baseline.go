package modelobs

// Baseline is the training-time reference distribution embedded in
// the model artifact by core.Fit. Every field is computed from the
// training rows the model was fitted on, so a loaded model carries
// its own drift reference and a serving process needs no side
// channel back to the training data.
//
// Histograms use the same 64-bucket log2 layout as obs histograms
// (bucket i holds values with bit length i); confidences are stored
// in micro-units (ConfMicro) to fit that integer layout.
type Baseline struct {
	// Rows is the number of training rows the baseline saw.
	Rows int
	// NumClasses is the label arity.
	NumClasses int
	// Priors is the training label distribution.
	Priors []float64
	// PredMix is the model's own predicted-class distribution over
	// the training rows — the reference for live class-mix drift
	// (it differs from Priors exactly by the training error).
	PredMix []float64
	// FireRate is, per selected pattern feature, the fraction of
	// training rows its coverage bitset fires on (featsel.FireRates).
	FireRate []float64
	// ConfHist is the log2 histogram of training confidences in
	// micro-units (SVM margin or C4.5 leaf purity).
	ConfHist []int64
	// DensityHist is the log2 histogram of feature-vector lengths
	// (items kept + patterns fired) over the training rows.
	DensityHist []int64
	// LowConfCut is the p10 of the training confidence in micro-units:
	// live predictions at or below it count as "low confidence". The
	// cut is self-calibrating — ~10% of training rows sit at or below
	// it by construction.
	LowConfCut int64
	// LowConfRate is the exact fraction of training rows at or below
	// LowConfCut (≥ 0.10; ties can push it higher).
	LowConfRate float64
}

// Valid reports whether the baseline carries a usable reference
// distribution. Nil-safe: models loaded from pre-baseline envelopes
// have a nil Baseline.
func (b *Baseline) Valid() bool {
	if b == nil {
		return false
	}
	return b.Rows > 0 && len(b.PredMix) > 0
}

// NumPatterns returns the number of selected pattern features the
// baseline tracks fire rates for. Nil-safe.
func (b *Baseline) NumPatterns() int {
	if b == nil {
		return 0
	}
	return len(b.FireRate)
}

// Classes returns the label arity. Nil-safe.
func (b *Baseline) Classes() int {
	if b == nil {
		return 0
	}
	return b.NumClasses
}

// proportions returns hist normalized by its own mass (nil when the
// histogram is empty). Used once at Bind time to precompute the
// expected distributions the hot path compares against.
func proportions(hist []int64) []float64 {
	var total int64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return nil
	}
	out := make([]float64, len(hist))
	for i, c := range hist {
		out[i] = float64(c) / float64(total)
	}
	return out
}

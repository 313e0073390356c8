// Package discretize converts numeric attributes into categorical ones,
// a prerequisite for the binary item encoding (the paper, Section 2:
// "For numerical attributes, the continuous values are discretized
// first"). Two methods are provided: equal-frequency binning (the
// default) and the entropy-based MDL method of Fayyad & Irani (the
// standard supervised choice for classification pipelines of this era,
// including the LUCS-KDD discretized UCI sets the paper uses).
package discretize

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"
	"strconv"

	"dfpc/internal/dataset"
)

// Method selects a discretization algorithm. The values are explicit
// because Options.Method is gob-encoded in every saved model's config.
type Method int

const (
	// EqualFrequency splits so each bin holds roughly the same number
	// of instances. It is the default (the zero Options value) because
	// unsupervised quantile cuts preserve marginally-invisible
	// interaction structure that supervised methods discard — the
	// situation the paper's XOR example describes.
	EqualFrequency Method = 0
	// EntropyMDL is Fayyad–Irani recursive entropy minimization with the
	// MDL stopping criterion. Supervised: uses the class labels.
	EntropyMDL Method = 2
)

func (m Method) String() string {
	switch m {
	case EntropyMDL:
		return "entropy-mdl"
	case EqualFrequency:
		return "equal-frequency"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures Discretize.
type Options struct {
	Method Method
	// Bins is the bin count for EqualFrequency (default 3).
	Bins int
	// MaxCuts caps the number of cut points EntropyMDL may produce per
	// attribute (default 8); 0 means the default.
	MaxCuts int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Bins <= 0 {
		out.Bins = 3
	}
	if out.MaxCuts <= 0 {
		out.MaxCuts = 8
	}
	return out
}

// Discretizer holds per-attribute cut points fitted on training data so
// the same cuts can be applied to test data (fit on train, apply to
// both — the protocol required for honest cross-validation).
type Discretizer struct {
	cuts [][]float64 // per attribute; nil for already-categorical attributes
	src  []dataset.Attribute
}

// Fit learns cut points for every numeric attribute of d.
func Fit(d *dataset.Dataset, opts Options) (*Discretizer, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	disc := &Discretizer{cuts: make([][]float64, len(d.Attrs)), src: d.Attrs}
	for a, attr := range d.Attrs {
		if attr.Kind != dataset.Numeric {
			continue
		}
		vals, labels := column(d, a)
		var cuts []float64
		switch opts.Method {
		case EntropyMDL:
			cuts = mdlCuts(vals, labels, d.NumClasses(), opts.MaxCuts)
		case EqualFrequency:
			cuts = equalFrequencyCuts(vals, opts.Bins)
		default:
			return nil, fmt.Errorf("discretize: unknown method %v", opts.Method)
		}
		disc.cuts[a] = cuts
	}
	return disc, nil
}

// Apply returns a copy of d with every numeric attribute replaced by a
// categorical attribute whose values are interval labels. The
// discretizer must have been fitted on a dataset with the same schema.
func (disc *Discretizer) Apply(d *dataset.Dataset) (*dataset.Dataset, error) {
	if len(d.Attrs) != len(disc.src) {
		return nil, fmt.Errorf("discretize: schema mismatch: %d attrs vs fitted %d", len(d.Attrs), len(disc.src))
	}
	out := &dataset.Dataset{
		Name:    d.Name,
		Attrs:   make([]dataset.Attribute, len(d.Attrs)),
		Classes: d.Classes,
		Rows:    make([][]float64, d.NumRows()),
		Labels:  append([]int(nil), d.Labels...),
	}
	for a, attr := range d.Attrs {
		if attr.Kind != dataset.Numeric {
			out.Attrs[a] = attr
			continue
		}
		cuts := disc.cuts[a]
		out.Attrs[a] = dataset.Attribute{
			Name:   attr.Name,
			Kind:   dataset.Categorical,
			Values: binLabels(cuts),
		}
	}
	for i, row := range d.Rows {
		newRow := make([]float64, len(row))
		for a, v := range row {
			if dataset.IsMissing(v) || d.Attrs[a].Kind != dataset.Numeric {
				newRow[a] = v
				continue
			}
			newRow[a] = float64(binIndex(disc.cuts[a], v))
		}
		out.Rows[i] = newRow
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Cuts returns the fitted cut points for attribute a (nil if the
// attribute was already categorical).
func (disc *Discretizer) Cuts(a int) []float64 { return disc.cuts[a] }

// SourceSchema returns the attribute schema the discretizer was fitted
// on. Callers must treat the returned slice as read-only.
func (disc *Discretizer) SourceSchema() []dataset.Attribute { return disc.src }

// Bins returns the number of discretized values attribute a can take:
// len(cuts)+1 for numeric attributes (matching binLabels) and the
// category count for attributes that were already categorical. Together
// with BinOf this is the per-value face of Apply, letting a predict
// path encode one raw row without materializing a discretized dataset.
func (disc *Discretizer) Bins(a int) int {
	if disc.src[a].Kind == dataset.Numeric {
		return len(disc.cuts[a]) + 1
	}
	return len(disc.src[a].Values)
}

// BinOf maps a raw numeric value of attribute a to its bin index among
// Bins(a) right-inclusive intervals — exactly the value Apply would
// store in the discretized row.
func (disc *Discretizer) BinOf(a int, v float64) int {
	return binIndex(disc.cuts[a], v)
}

// FitApply fits cut points on d and applies them to d in one call.
func FitApply(d *dataset.Dataset, opts Options) (*dataset.Dataset, error) {
	disc, err := Fit(d, opts)
	if err != nil {
		return nil, err
	}
	return disc.Apply(d)
}

// binIndex maps a value to the index of its interval among len(cuts)+1
// bins; intervals are right-inclusive, so a value equal to a cut point
// lands in the bin to the cut's left.
func binIndex(cuts []float64, v float64) int {
	return sort.SearchFloat64s(cuts, v)
}

// binLabels builds human-readable interval names for len(cuts)+1 bins.
func binLabels(cuts []float64) []string {
	if len(cuts) == 0 {
		return []string{"all"}
	}
	labels := make([]string, len(cuts)+1)
	fmtF := func(x float64) string { return strconv.FormatFloat(x, 'g', 6, 64) }
	labels[0] = "(-inf-" + fmtF(cuts[0]) + "]"
	for i := 1; i < len(cuts); i++ {
		labels[i] = "(" + fmtF(cuts[i-1]) + "-" + fmtF(cuts[i]) + "]"
	}
	labels[len(cuts)] = "(" + fmtF(cuts[len(cuts)-1]) + "-inf)"
	return labels
}

// column extracts the non-missing values and parallel labels of
// attribute a.
func column(d *dataset.Dataset, a int) ([]float64, []int) {
	vals := make([]float64, 0, d.NumRows())
	labels := make([]int, 0, d.NumRows())
	for i, row := range d.Rows {
		if dataset.IsMissing(row[a]) {
			continue
		}
		vals = append(vals, row[a])
		labels = append(labels, d.Labels[i])
	}
	return vals, labels
}

func equalFrequencyCuts(vals []float64, bins int) []float64 {
	if len(vals) == 0 || bins < 2 {
		return nil
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	cuts := make([]float64, 0, bins-1)
	for b := 1; b < bins; b++ {
		idx := b * len(sorted) / bins
		if idx <= 0 || idx >= len(sorted) {
			continue
		}
		cut := (sorted[idx-1] + sorted[idx]) / 2
		if len(cuts) == 0 || cut > cuts[len(cuts)-1] {
			cuts = append(cuts, cut)
		}
	}
	return cuts
}

// mdlCuts implements Fayyad–Irani recursive binary entropy
// discretization with the MDL principle stopping criterion.
func mdlCuts(vals []float64, labels []int, numClasses, maxCuts int) []float64 {
	if len(vals) == 0 {
		return nil
	}
	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(vals))
	for i := range vals {
		pairs[i] = pair{vals[i], labels[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	sv := make([]float64, len(pairs))
	sy := make([]int, len(pairs))
	for i, p := range pairs {
		sv[i] = p.v
		sy[i] = p.y
	}
	var cuts []float64
	var recurse func(lo, hi int)
	recurse = func(lo, hi int) {
		if len(cuts) >= maxCuts {
			return
		}
		cutIdx, cutVal, ok := bestMDLCut(sv, sy, lo, hi, numClasses)
		if !ok {
			return
		}
		cuts = append(cuts, cutVal)
		recurse(lo, cutIdx)
		recurse(cutIdx, hi)
	}
	recurse(0, len(sv))
	sort.Float64s(cuts)
	return cuts
}

// bestMDLCut finds, within sv[lo:hi], the boundary minimizing class
// entropy; it returns ok=false if the MDL criterion rejects the split.
func bestMDLCut(sv []float64, sy []int, lo, hi, numClasses int) (cutIdx int, cutVal float64, ok bool) {
	n := hi - lo
	if n < 4 {
		return 0, 0, false
	}
	total := make([]float64, numClasses)
	for i := lo; i < hi; i++ {
		total[sy[i]]++
	}
	totalEnt := entropy(total, float64(n))

	left := make([]float64, numClasses)
	bestEnt := math.Inf(1)
	bestIdx := -1
	for i := lo; i < hi-1; i++ {
		left[sy[i]]++
		// Only consider boundaries between distinct values.
		if sv[i] == sv[i+1] {
			continue
		}
		nl := float64(i - lo + 1)
		nr := float64(hi - i - 1)
		right := make([]float64, numClasses)
		for c := range right {
			right[c] = total[c] - left[c]
		}
		e := (nl*entropy(left, nl) + nr*entropy(right, nr)) / float64(n)
		if e < bestEnt {
			bestEnt = e
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return 0, 0, false
	}

	// Recompute the class-count vectors at the best boundary for the MDL
	// test.
	leftB := make([]float64, numClasses)
	for i := lo; i <= bestIdx; i++ {
		leftB[sy[i]]++
	}
	rightB := make([]float64, numClasses)
	for c := range rightB {
		rightB[c] = total[c] - leftB[c]
	}
	nl := float64(bestIdx - lo + 1)
	nr := float64(hi - bestIdx - 1)
	k := nonzero(total)
	kl := nonzero(leftB)
	kr := nonzero(rightB)

	gain := totalEnt - bestEnt
	delta := log2(math.Pow(3, float64(k))-2) -
		(float64(k)*totalEnt - float64(kl)*entropy(leftB, nl) - float64(kr)*entropy(rightB, nr))
	threshold := (log2(float64(n-1)) + delta) / float64(n)
	if gain <= threshold {
		return 0, 0, false
	}
	return bestIdx + 1, (sv[bestIdx] + sv[bestIdx+1]) / 2, true
}

func entropy(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / n
			h -= p * log2(p)
		}
	}
	return h
}

func nonzero(counts []float64) int {
	k := 0
	for _, c := range counts {
		if c > 0 {
			k++
		}
	}
	return k
}

func log2(x float64) float64 { return math.Log2(x) }

// discretizerSnapshot is the gob-encodable form of a fitted
// Discretizer.
type discretizerSnapshot struct {
	Cuts [][]float64
	Src  []dataset.Attribute
}

// MarshalBinary encodes the fitted cut points and source schema
// (encoding.BinaryMarshaler).
func (disc *Discretizer) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(discretizerSnapshot{Cuts: disc.cuts, Src: disc.src}); err != nil {
		return nil, fmt.Errorf("discretize: marshal: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a Discretizer encoded by MarshalBinary.
func (disc *Discretizer) UnmarshalBinary(data []byte) error {
	var s discretizerSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return fmt.Errorf("discretize: unmarshal: %w", err)
	}
	if len(s.Cuts) != len(s.Src) {
		return fmt.Errorf("discretize: unmarshal: %d cut sets for %d attributes", len(s.Cuts), len(s.Src))
	}
	disc.cuts = s.Cuts
	disc.src = s.Src
	return nil
}

// Package discretize converts numeric attributes into categorical ones,
// a prerequisite for the binary item encoding (the paper, Section 2:
// "For numerical attributes, the continuous values are discretized
// first") by equal-frequency binning. Unsupervised quantile cuts
// preserve marginally-invisible interaction structure that supervised
// methods discard — the situation the paper's XOR example describes.
package discretize

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"strconv"

	"dfpc/internal/dataset"
)

// Options configures Fit.
type Options struct {
	// Bins is the equal-frequency bin count (default 3).
	Bins int
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
	bins := opts.Bins
	if bins <= 0 {
		bins = 3
	}
	disc := &Discretizer{cuts: make([][]float64, len(d.Attrs)), src: d.Attrs}
	for a, attr := range d.Attrs {
		if attr.Kind != dataset.Numeric {
			continue
		}
		disc.cuts[a] = equalFrequencyCuts(column(d, a), bins)
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

// column extracts the non-missing values of attribute a.
func column(d *dataset.Dataset, a int) []float64 {
	vals := make([]float64, 0, d.NumRows())
	for _, row := range d.Rows {
		if !dataset.IsMissing(row[a]) {
			vals = append(vals, row[a])
		}
	}
	return vals
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

package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/mining"
)

// The compiled matcher is an optimization, not a semantic change: for
// every row, featureVectorInto (trie walk) must produce exactly the
// bytes featureVectorNaive (per-pattern containsAll) produces. These
// tests pin that equivalence on the bundled benchmark datasets, on
// randomized datasets, and on adversarial pattern sets (empty,
// single-item, duplicate, unmatched) that a fit would rarely select.

// featureVectorNaive is the reference implementation of the feature
// mapping: an O(|patterns|·|tx|) per-pattern subset test with no
// shared structure: the differential-test oracle for the compiled
// matcher path in featureVectorInto.
func (p *Pipeline) featureVectorNaive(tx []int32) []int32 {
	out := make([]int32, 0, len(tx)+len(p.patterns))
	if p.itemKept != nil {
		for _, it := range tx {
			if p.itemKept[it] {
				out = append(out, it)
			}
		}
	} else {
		out = append(out, tx...)
	}
	for j := range p.patterns {
		if containsAll(tx, p.patterns[j].Items) {
			out = append(out, int32(p.numItems+j))
		}
	}
	return out
}

// containsAll reports whether sorted transaction tx contains every item
// of sorted pattern items.
func containsAll(tx, items []int32) bool {
	i := 0
	for _, it := range items {
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

// assertCompiledMatchesNaive compares the two feature-vector
// implementations on every row of d through p's fitted coder.
func assertCompiledMatchesNaive(t *testing.T, p *Pipeline, d *dataset.Dataset) {
	t.Helper()
	bp, err := p.NewBatchPredictor()
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.coder.checkSchema(d); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < d.NumRows(); r++ {
		tx, err := bp.coder.encode(d.Rows[r], r)
		if err != nil {
			t.Fatal(err)
		}
		naive := p.featureVectorNaive(tx)
		got := p.featureVectorInto(bp.fv[:0], tx, &bp.ms)
		if !slices.Equal(got, naive) {
			t.Fatalf("row %d: compiled feature vector %v != naive %v (tx %v)", r, got, naive, tx)
		}
	}
}

// TestDifferentialBundledDatasets fits the full pipeline (Pat_FS and
// Pat_All) on bundled UCI stand-ins and checks compiled-vs-naive
// equivalence over every row the model can be asked to score. It also
// checks that Fit released the mined coverage bitmaps: they are
// training-row state, not model state.
func TestDifferentialBundledDatasets(t *testing.T) {
	for _, name := range []string{"austral", "breast", "zoo"} {
		t.Run(name, func(t *testing.T) {
			d, err := datagen.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*Pipeline{NewPatFS(SVMLinear, 0.15), NewPatAll(SVMLinear, 0.3)} {
				if err := p.Fit(d, allRows(d.NumRows())); err != nil {
					t.Fatal(err)
				}
				if len(p.patterns) == 0 {
					t.Fatal("no patterns selected; differential test would be vacuous")
				}
				for _, pt := range p.patterns {
					if pt.Cover() != nil {
						t.Fatalf("pattern %v still holds its coverage bitmap after Fit", pt.Items)
					}
				}
				assertCompiledMatchesNaive(t, p, d)
			}
		})
	}
}

// TestDifferentialRandomized fuzzes the equivalence over many small
// random categorical datasets: random schema shapes, random rows,
// random labels — whatever patterns the miner happens to select.
func TestDifferentialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nAttrs := 2 + rng.Intn(5)
		d := &dataset.Dataset{Name: fmt.Sprintf("rand%d", trial), Classes: []string{"a", "b"}}
		cards := make([]int, nAttrs)
		for a := 0; a < nAttrs; a++ {
			cards[a] = 2 + rng.Intn(3)
			attr := dataset.Attribute{Name: fmt.Sprintf("c%d", a), Kind: dataset.Categorical}
			for v := 0; v < cards[a]; v++ {
				attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
			}
			d.Attrs = append(d.Attrs, attr)
		}
		nRows := 30 + rng.Intn(50)
		for i := 0; i < nRows; i++ {
			row := make([]float64, nAttrs)
			for a := range row {
				row[a] = float64(rng.Intn(cards[a]))
			}
			d.Rows = append(d.Rows, row)
			d.Labels = append(d.Labels, rng.Intn(2))
		}
		p := NewPatFS(SVMLinear, 0.1+rng.Float64()*0.2)
		if err := p.Fit(d, allRows(nRows)); err != nil {
			t.Fatalf("trial %d: fit: %v", trial, err)
		}
		assertCompiledMatchesNaive(t, p, d)
	}
}

// TestDifferentialEdgePatterns replaces a fitted pipeline's pattern
// set with shapes selection would rarely produce — the empty pattern
// (matches every row), single items, duplicates, and an unmatchable
// pattern — recompiles the matcher, and requires the two paths to
// still agree, including on the pattern-feature ID assignment.
func TestDifferentialEdgePatterns(t *testing.T) {
	p, _, _ := fitXORPipeline(t)
	d := xorDataset(80)
	// Item IDs: x∈{0,1}, y∈{2,3}, z∈{4,5} (attribute-major layout).
	p.patterns = []mining.Pattern{
		{Items: nil},                 // empty: subset of everything
		{Items: []int32{1}},          // single item
		{Items: []int32{1, 3}},       // pair
		{Items: []int32{1, 3}},       // exact duplicate
		{Items: []int32{0, 1}},       // contradiction: x=0 and x=1 never co-occur
		{Items: []int32{1, 3, 5}},    // full-width
		{Items: []int32{0, 2, 4, 5}}, // another contradiction (z twice)
	}
	if err := p.compileMatcher(); err != nil {
		t.Fatal(err)
	}
	assertCompiledMatchesNaive(t, p, d)
}

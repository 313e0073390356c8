package measures_test

import (
	"testing"

	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/measures"
	"dfpc/internal/mining"
)

// TestMinedPatternsWithinIGBound checks every closed pattern mined per
// class on datagen waveform (3 classes, the min(H2(θ), H(C)) bound) and
// austral (2 classes, the exact IGub of Eq. 2) against the bound at its
// support: the measures.ig_bound_violations counter must read 0 on
// real pools, not only on random ones.
func TestMinedPatternsWithinIGBound(t *testing.T) {
	for _, ds := range []string{"waveform", "austral"} {
		d, err := datagen.ByName(ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		cat, err := discretize.FitApply(d, discretize.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := dataset.Encode(cat)
		if err != nil {
			t.Fatal(err)
		}
		mined, err := mining.MinePerClass(b, mining.PerClassOptions{MinSupport: 0.15, Closed: true, MinLen: 2, MaxLen: 6, Workers: 1})
		if err != nil {
			t.Fatalf("%s: mine: %v", ds, err)
		}
		if len(mined) == 0 {
			t.Fatalf("%s: no patterns mined", ds)
		}
		n := b.NumRows()
		priors := make([]float64, b.NumClasses())
		for c, cnt := range b.ClassCounts() {
			priors[c] = float64(cnt) / float64(n)
		}
		for _, pt := range mined {
			theta := float64(pt.Support) / float64(n)
			bound := measures.IGUpperBoundMulti(theta, priors)
			if len(priors) == 2 {
				bound = measures.IGUpperBound(theta, priors[1])
			}
			if ig := measures.InfoGain(pt.Cover(), b.ClassMasks); ig > bound+1e-9 {
				t.Fatalf("%s: pattern %v (support %d): IG %v > bound %v", ds, pt.Items, pt.Support, ig, bound)
			}
		}
		t.Logf("%s: %d classes, %d patterns within the bound", ds, len(priors), len(mined))
	}
}

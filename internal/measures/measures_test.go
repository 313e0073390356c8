package measures

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dfpc/internal/bitset"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestH2(t *testing.T) {
	if got := H2(0.5); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("H2(0.5) = %v, want 1", got)
	}
	if H2(0) != 0 || H2(1) != 0 {
		t.Fatal("H2 at extremes should be 0")
	}
	if got := H2(0.25); !almostEqual(got, 0.8112781244591328, 1e-12) {
		t.Fatalf("H2(0.25) = %v", got)
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy([]float64{1, 1, 1, 1}); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("uniform-4 entropy = %v, want 2", got)
	}
	if got := Entropy([]float64{5, 0, 0}); got != 0 {
		t.Fatalf("degenerate entropy = %v, want 0", got)
	}
	if got := Entropy(nil); got != 0 {
		t.Fatalf("empty entropy = %v, want 0", got)
	}
}

// masksFor builds class masks for a label vector.
func masksFor(labels []int, classes int) []*bitset.Bitset {
	masks := make([]*bitset.Bitset, classes)
	for c := range masks {
		masks[c] = bitset.New(len(labels))
	}
	for i, y := range labels {
		masks[y].Set(i)
	}
	return masks
}

func TestInfoGainPerfectFeature(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(6, []int{3, 4, 5}) // exactly class 1
	if got := InfoGain(cover, masks); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("perfect feature IG = %v, want 1", got)
	}
}

func TestInfoGainUselessFeature(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(4, []int{0, 2}) // half of each class
	if got := InfoGain(cover, masks); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("useless feature IG = %v, want 0", got)
	}
}

func TestInfoGainHandComputed(t *testing.T) {
	// 10 rows, p = 0.4 (4 positive). Feature covers 5 rows of which 3
	// positive. H(C) = H2(0.4); H(C|X) = 0.5*H2(3/5) + 0.5*H2(1/5).
	labels := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(10, []int{0, 1, 2, 4, 5})
	want := H2(0.4) - 0.5*H2(0.6) - 0.5*H2(0.2)
	if got := InfoGain(cover, masks); !almostEqual(got, want, 1e-12) {
		t.Fatalf("IG = %v, want %v", got, want)
	}
}

func TestInfoGainEmptyAndFullCover(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	masks := masksFor(labels, 2)
	empty := bitset.New(4)
	if got := InfoGain(empty, masks); got != 0 {
		t.Fatalf("empty cover IG = %v", got)
	}
	full := bitset.New(4)
	full.SetAll()
	if got := InfoGain(full, masks); got != 0 {
		t.Fatalf("full cover IG = %v", got)
	}
}

func TestFisherScorePerfectFeature(t *testing.T) {
	labels := []int{0, 0, 0, 1, 1, 1}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(6, []int{3, 4, 5})
	if got := FisherScore(cover, masks); !math.IsInf(got, 1) {
		t.Fatalf("perfect feature Fisher = %v, want +Inf", got)
	}
}

func TestFisherScoreUselessFeature(t *testing.T) {
	labels := []int{0, 0, 1, 1}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(4, []int{0, 2})
	if got := FisherScore(cover, masks); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("useless feature Fisher = %v, want 0", got)
	}
}

func TestFisherScoreHandComputed(t *testing.T) {
	// 6 rows: class 0 = {0,1,2}, class 1 = {3,4,5}. Cover = {0,1,3}.
	// μ0 = 2/3, μ1 = 1/3, μ = 1/2.
	// num = 3(2/3−1/2)² + 3(1/3−1/2)² = 3·(1/36)·2 = 1/6.
	// den = 3·(2/9) + 3·(2/9) = 4/3. Fr = (1/6)/(4/3) = 1/8.
	labels := []int{0, 0, 0, 1, 1, 1}
	masks := masksFor(labels, 2)
	cover := bitset.FromIndices(6, []int{0, 1, 3})
	if got := FisherScore(cover, masks); !almostEqual(got, 0.125, 1e-12) {
		t.Fatalf("Fisher = %v, want 0.125", got)
	}
}

func TestIGUpperBoundPaperShape(t *testing.T) {
	p := 0.5
	// Rises with θ in the low-support region.
	prev := 0.0
	for _, theta := range []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.5} {
		ub := IGUpperBound(theta, p)
		if ub < prev-1e-12 {
			t.Fatalf("IGub not rising at θ=%v: %v < %v", theta, ub, prev)
		}
		prev = ub
	}
	// At θ = p the bound reaches H(C).
	if got := IGUpperBound(0.5, 0.5); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("IGub(p,p) = %v, want 1", got)
	}
	// Falls again at very high support ("stop word" effect).
	if IGUpperBound(0.95, 0.5) >= IGUpperBound(0.5, 0.5) {
		t.Fatal("IGub should decrease at very high support")
	}
	// Small at very low support: the paper cites ~0.06 at θ = 5%.
	if got := IGUpperBound(0.05, 0.5); got > 0.3 {
		t.Fatalf("IGub(0.05) = %v, unexpectedly large", got)
	}
}

func TestIGUpperBoundEq3Case(t *testing.T) {
	// For θ ≤ p and p ≤ 1/2 the q=1 endpoint yields Hlb = (1−θ)·H2((p−θ)/(1−θ));
	// the exact bound must be at least H2(p) − that value.
	p, theta := 0.4, 0.2
	q1 := H2(p) - (1-theta)*H2((p-theta)/(1-theta))
	if got := IGUpperBound(theta, p); got < q1-1e-12 {
		t.Fatalf("IGub = %v < q=1 bound %v", got, q1)
	}
}

func TestIGUpperBoundDominatesEmpirical(t *testing.T) {
	// Property: for random two-class data and random features, the
	// empirical IG never exceeds IGub at the feature's support.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(200)
		labels := make([]int, n)
		pos := 0
		for i := range labels {
			labels[i] = r.Intn(2)
			pos += labels[i]
		}
		if pos == 0 || pos == n {
			return true // degenerate class distribution, bound trivially 0=IG
		}
		masks := masksFor(labels, 2)
		p := float64(pos) / float64(n)
		cover := bitset.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				cover.Set(i)
			}
		}
		sup := cover.Count()
		if sup == 0 || sup == n {
			return true
		}
		theta := float64(sup) / float64(n)
		return InfoGain(cover, masks) <= IGUpperBound(theta, p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIGUpperBoundMultiDominatesEmpirical(t *testing.T) {
	// Property: for 2–6 classes under skewed random priors and random
	// covers, the empirical IG never exceeds the multi-class bound at
	// the cover's support and the empirical class distribution.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(300)
		m := 2 + r.Intn(5)
		// Cubing uniform weights skews the priors toward a few
		// dominant classes.
		cum := make([]float64, m)
		total := 0.0
		for c := range cum {
			w := r.Float64()
			total += w * w * w
			cum[c] = total
		}
		labels := make([]int, n)
		counts := make([]float64, m)
		for i := range labels {
			u := r.Float64() * total
			c := 0
			for c < m-1 && u > cum[c] {
				c++
			}
			labels[i] = c
			counts[c]++
		}
		priors := make([]float64, m)
		for c := range priors {
			priors[c] = counts[c] / float64(n)
		}
		// Half the covers are uniform noise at a random density; the
		// other half mostly hit one class, which drives IG toward the
		// bound.
		cover := bitset.New(n)
		density := r.Float64()
		target := r.Intn(m)
		pure := r.Intn(2) == 0
		for i, y := range labels {
			hit := r.Float64() < density
			if pure {
				hit = (y == target) != (r.Float64() < density/10)
			}
			if hit {
				cover.Set(i)
			}
		}
		sup := cover.Count()
		if sup == 0 || sup == n {
			return true
		}
		theta := float64(sup) / float64(n)
		return InfoGain(cover, masksFor(labels, m)) <= IGUpperBoundMulti(theta, priors)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestFisherUpperBoundDominatesEmpirical(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(200)
		labels := make([]int, n)
		pos := 0
		for i := range labels {
			labels[i] = r.Intn(2)
			pos += labels[i]
		}
		if pos == 0 || pos == n {
			return true
		}
		masks := masksFor(labels, 2)
		p := float64(pos) / float64(n)
		cover := bitset.New(n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				cover.Set(i)
			}
		}
		sup := cover.Count()
		if sup == 0 || sup == n {
			return true
		}
		theta := float64(sup) / float64(n)
		fs := FisherScore(cover, masks)
		ub := FisherUpperBound(theta, p)
		if math.IsInf(ub, 1) {
			return true
		}
		return fs <= ub+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFisherUpperBoundEq6(t *testing.T) {
	// Eq. 6: for θ ≤ p, p ≤ 1/2, Frub|q=1 = θ(1−p)/(p−θ).
	p, theta := 0.4, 0.2
	want := theta * (1 - p) / (p - theta)
	if got := FisherUpperBound(theta, p); !almostEqual(got, want, 1e-12) {
		t.Fatalf("Frub = %v, want %v", got, want)
	}
	// Blows up as θ → p.
	if got := FisherUpperBound(0.399999, 0.4); got < 1000 {
		t.Fatalf("Frub near θ=p = %v, want large", got)
	}
}

// TestFisherUpperBoundSingularSupport pins Frub at θ = 1 − p: a
// feature whose support equals the majority count can cover exactly
// the majority class (q = 0), so the bound is +Inf, not the rounding
// residue of Y − Z. One row to either side the bound is finite, unless
// that row is the other singular support θ = p.
func TestFisherUpperBoundSingularSupport(t *testing.T) {
	for n := 2; n <= 1000; n++ {
		for c := 1; c < n; c++ {
			p := float64(c) / float64(n)
			if ub := FisherUpperBound(float64(n-c)/float64(n), p); !math.IsInf(ub, 1) {
				t.Fatalf("n=%d c=%d: Frub(θ=1−p) = %v, want +Inf", n, c, ub)
			}
			for _, s := range []int{n - c - 1, n - c + 1} {
				if s <= 0 || s >= n || s == c {
					continue
				}
				if ub := FisherUpperBound(float64(s)/float64(n), p); math.IsInf(ub, 0) || math.IsNaN(ub) {
					t.Fatalf("n=%d c=%d support %d: Frub = %v, want finite", n, c, s, ub)
				}
			}
		}
	}
}

func TestFisherUpperBoundMonotoneBelowP(t *testing.T) {
	p := 0.5
	prev := 0.0
	for _, theta := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.45} {
		ub := FisherUpperBound(theta, p)
		if ub < prev {
			t.Fatalf("Frub not monotone at θ=%v", theta)
		}
		prev = ub
	}
}

func TestIGUpperBoundMulti(t *testing.T) {
	priors := []float64{0.25, 0.25, 0.25, 0.25}
	// Bounded by H(X) at low support.
	if got := IGUpperBoundMulti(0.01, priors); got > H2(0.01)+1e-12 {
		t.Fatalf("multi bound = %v exceeds H2(θ)", got)
	}
	// Bounded by H(C) everywhere.
	if got := IGUpperBoundMulti(0.5, priors); got > 2+1e-12 {
		t.Fatalf("multi bound = %v exceeds H(C)=2", got)
	}
	if IGUpperBoundMulti(0, priors) != 0 || IGUpperBoundMulti(1, priors) != 0 {
		t.Fatal("multi bound at extremes should be 0")
	}
}

func TestMinSupportForIG(t *testing.T) {
	n := 1000
	p := 0.5
	s, err := MinSupportForIG(0.1, p, n)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s >= n/2 {
		t.Fatalf("s* = %d, implausible", s)
	}
	// Everything at or below s* must satisfy the bound.
	for c := 1; c <= s; c++ {
		if IGUpperBound(float64(c)/float64(n), p) > 0.1 {
			t.Fatalf("IGub violated at support %d <= s*=%d", c, s)
		}
	}
	// s*+1 must exceed the threshold (maximality).
	if IGUpperBound(float64(s+1)/float64(n), p) <= 0.1 {
		t.Fatalf("s* = %d not maximal", s)
	}
}

func TestMinSupportForIGMonotoneInThreshold(t *testing.T) {
	n := 500
	p := 0.3
	prev := -1
	for _, ig0 := range []float64{0.01, 0.05, 0.1, 0.2, 0.4} {
		s, err := MinSupportForIG(ig0, p, n)
		if err != nil {
			t.Fatal(err)
		}
		if s < prev {
			t.Fatalf("θ* decreased as IG0 grew: %d < %d at ig0=%v", s, prev, ig0)
		}
		prev = s
	}
}

func TestMinSupportForFisher(t *testing.T) {
	n := 1000
	p := 0.5
	s, err := MinSupportForFisher(0.2, p, n)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("s* = %d", s)
	}
	for c := 1; c <= s; c++ {
		if FisherUpperBound(float64(c)/float64(n), p) > 0.2 {
			t.Fatalf("Frub violated at support %d", c)
		}
	}
	if FisherUpperBound(float64(s+1)/float64(n), p) <= 0.2 {
		t.Fatalf("s* = %d not maximal", s)
	}
}

func TestMinSupportErrors(t *testing.T) {
	if _, err := MinSupportForIG(0.1, 0.5, 0); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := MinSupportForIG(-1, 0.5, 10); err == nil {
		t.Fatal("negative ig0 should error")
	}
	if _, err := MinSupportForFisher(-1, 0.5, 10); err == nil {
		t.Fatal("negative fr0 should error")
	}
	if _, err := MinSupportForIGMulti(-1, []float64{0.5, 0.5}, 10); err == nil {
		t.Fatal("negative ig0 should error (multi)")
	}
}

func TestFeasibleQ(t *testing.T) {
	// θ ≤ min(p, 1−p): full range.
	qlo, qhi := feasibleQ(0.2, 0.5)
	if qlo != 0 || !almostEqual(qhi, 1, 1e-12) {
		t.Fatalf("feasibleQ(0.2,0.5) = (%v,%v)", qlo, qhi)
	}
	// θ > p: qhi = p/θ.
	_, qhi = feasibleQ(0.8, 0.4)
	if !almostEqual(qhi, 0.5, 1e-12) {
		t.Fatalf("qhi = %v, want 0.5", qhi)
	}
	// θ > 1−p: qlo = (p−1+θ)/θ.
	qlo, _ = feasibleQ(0.8, 0.6)
	if !almostEqual(qlo, 0.5, 1e-12) {
		t.Fatalf("qlo = %v, want 0.5", qlo)
	}
}

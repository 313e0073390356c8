// Package measures implements the discriminative measures and the
// analytical results at the heart of the paper (Section 3.1.2 and 3.2):
// information gain and Fisher score of a binary pattern feature, their
// closed-form upper bounds as functions of the pattern's support θ, and
// the min_sup-setting strategy θ* = argmax_θ (IGub(θ) ≤ IG0) (Eq. 8).
package measures

import (
	"fmt"
	"math"

	"dfpc/internal/bitset"
)

// log2 with the convention 0·log2(0) = 0 handled by callers. The
// domain guard pins non-positive arguments to the x→0⁺ limit so a
// caller that slips past its own guard gets -Inf (which propagates
// visibly) instead of math.Log2's silent NaN for x < 0.
func log2(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log2(x)
}

// H2 is the binary entropy function H2(p) = -p log p - (1-p) log(1-p).
func H2(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*log2(p) - (1-p)*log2(1-p)
}

// Entropy returns the Shannon entropy (bits) of a discrete distribution
// given as non-negative counts.
func Entropy(counts []float64) float64 {
	n := 0.0
	for _, c := range counts {
		n += c
	}
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

// InfoGain returns IG(C|X) = H(C) − H(C|X) (Eq. 1) where X is the
// binary feature "pattern present", cover is the rows where X = 1, and
// classMasks partition all n rows by class.
func InfoGain(cover *bitset.Bitset, classMasks []*bitset.Bitset) float64 {
	n := float64(cover.Len())
	if n == 0 {
		return 0
	}
	m := len(classMasks)
	in := make([]float64, m)  // class counts where X=1
	out := make([]float64, m) // class counts where X=0
	total := make([]float64, m)
	nIn := 0.0
	for c, mask := range classMasks {
		cnt := float64(mask.Count())
		inC := float64(cover.AndCount(mask))
		in[c] = inC
		out[c] = cnt - inC
		total[c] = cnt
		nIn += inC
	}
	hc := Entropy(total)
	cond := 0.0
	if nIn > 0 {
		cond += nIn / n * Entropy(in)
	}
	if n-nIn > 0 {
		cond += (n - nIn) / n * Entropy(out)
	}
	ig := hc - cond
	if ig < 0 {
		ig = 0 // clamp tiny negative rounding noise
	}
	return ig
}

// FisherScore returns the Fisher score (Eq. 4) of the binary feature
// "pattern present": Fr = Σ_i n_i (μ_i − μ)² / Σ_i n_i σ_i², where for a
// Bernoulli feature μ_i is the within-class support fraction and
// σ_i² = μ_i(1−μ_i). A zero denominator with a zero numerator yields 0;
// a zero denominator with positive numerator yields +Inf (perfectly
// separating feature).
func FisherScore(cover *bitset.Bitset, classMasks []*bitset.Bitset) float64 {
	n := float64(cover.Len())
	if n == 0 {
		return 0
	}
	mu := float64(cover.Count()) / n
	num, den := 0.0, 0.0
	for _, mask := range classMasks {
		ni := float64(mask.Count())
		if ni == 0 {
			continue
		}
		mui := float64(cover.AndCount(mask)) / ni
		num += ni * (mui - mu) * (mui - mu)
		den += ni * mui * (1 - mui)
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// feasibleQ returns the feasible range [qlo, qhi] of q = P(c=1 | x=1)
// given support θ = P(x=1) and class prior p = P(c=1): the joint
// distribution requires θq ≤ p and θ(1−q) ≤ 1−p.
func feasibleQ(theta, p float64) (qlo, qhi float64) {
	qlo = 0.0
	if v := (p - (1 - theta)) / theta; v > qlo {
		qlo = v
	}
	qhi = 1.0
	if v := p / theta; v < qhi {
		qhi = v
	}
	return qlo, qhi
}

// condEntropyAtQ evaluates H(C|X) for the two-class case at the given
// (θ, p, q) triple.
func condEntropyAtQ(theta, p, q float64) float64 {
	h := theta * H2(q)
	if theta < 1 {
		q0 := (p - theta*q) / (1 - theta)
		h += (1 - theta) * H2(q0)
	}
	return h
}

// IGUpperBound returns IGub(C|X) (Eq. 2) for a two-class problem: the
// maximum information gain any feature of support θ can attain, given
// class prior p = P(c = 1). H(C|X) is concave in q, so its lower bound
// is attained at a feasible endpoint of q; the bound is H2(p) minus
// that minimum (the paper's case analysis around Eq. 3, extended to all
// feasible endpoints so it is exact for every θ and p).
func IGUpperBound(theta, p float64) float64 {
	if theta <= 0 || theta >= 1 || p <= 0 || p >= 1 {
		return 0
	}
	qlo, qhi := feasibleQ(theta, p)
	hmin := math.Min(condEntropyAtQ(theta, p, qlo), condEntropyAtQ(theta, p, qhi))
	ig := H2(p) - hmin
	if ig < 0 {
		ig = 0
	}
	return ig
}

// IGUpperBoundMulti returns a valid information-gain upper bound for an
// m-class problem with the given class priors: IG(C|X) ≤ min(H(X),
// H(C)) = min(H2(θ), H(priors)). It is looser than the exact two-class
// bound but sound for any class count, and is what the min_sup strategy
// uses on multi-class datasets.
func IGUpperBoundMulti(theta float64, priors []float64) float64 {
	if theta <= 0 || theta >= 1 {
		return 0
	}
	return math.Min(H2(theta), Entropy(priors))
}

// fisherSingularTol is the relative width, against Y, within which
// fisherAtQ treats Y − Z as zero. At the singular supports θ = p
// (q = 1) and θ = 1 − p (q = 0) the exact Y − Z is 0, but θ and p come
// from s/n and c/n, so the computed difference is a rounding residue of
// a few ulps of Y. One row away from either support it is at least
// Y/n, so any n below 10^12 stays clear of the tolerance.
const fisherSingularTol = 1e-12

// fisherAtQ evaluates Eq. (5): Fr = θ(p−q)² / (p(1−p)(1−θ) − θ(p−q)²),
// the two-class Fisher score at the (θ, p, q) triple. Degenerate
// denominators follow the paper's conventions: Y = 0 ⇒ Fr = 0 by Eq. 4;
// Y − Z within rounding of 0 or below it, with Z > 0 ⇒ +Inf (the blow-up
// at θ = p and θ = 1 − p, where the feature separates the classes).
func fisherAtQ(theta, p, q float64) float64 {
	y := p * (1 - p) * (1 - theta)
	z := theta * (p - q) * (p - q)
	if y == 0 {
		return 0
	}
	if z == 0 {
		return 0
	}
	if y-z <= fisherSingularTol*y {
		return math.Inf(1)
	}
	return z / (y - z)
}

// FisherUpperBound returns Frub(θ): the maximum Fisher score any
// feature of support θ can attain in a two-class problem with prior p.
// Fr increases with (p−q)², so the bound sits at the feasible endpoint
// of q farthest from p (Eq. 6 is the q = 1 case for θ ≤ p, p ≤ 1/2).
func FisherUpperBound(theta, p float64) float64 {
	if theta <= 0 || theta >= 1 || p <= 0 || p >= 1 {
		return 0
	}
	qlo, qhi := feasibleQ(theta, p)
	return math.Max(fisherAtQ(theta, p, qlo), fisherAtQ(theta, p, qhi))
}

// MinSupportForIG implements the min_sup-setting strategy (Section 3.2,
// Eq. 8): given a feature-filter threshold ig0, class prior p, and
// dataset size n, it returns the largest absolute support s* such that
// IGub(s/n) ≤ ig0 for every s ≤ s*. Features with support ≤ s* can be
// skipped without losing any feature an IG filter at ig0 would keep, so
// mining with min_sup = s*+1 is lossless w.r.t. that filter. Returns 0
// when even support 1 can exceed ig0.
func MinSupportForIG(ig0, p float64, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("measures: n = %d, want > 0", n)
	}
	if ig0 < 0 {
		return 0, fmt.Errorf("measures: ig0 = %v, want >= 0", ig0)
	}
	// IGub(θ) rises from 0 toward H2(p) as θ grows in the low-support
	// region; scan until the bound first exceeds ig0.
	s := 0
	for cand := 1; cand <= n; cand++ {
		if IGUpperBound(float64(cand)/float64(n), p) > ig0 {
			break
		}
		s = cand
	}
	return s, nil
}

// MinSupportForIGMulti is MinSupportForIG with the multi-class bound
// IGUpperBoundMulti.
func MinSupportForIGMulti(ig0 float64, priors []float64, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("measures: n = %d, want > 0", n)
	}
	if ig0 < 0 {
		return 0, fmt.Errorf("measures: ig0 = %v, want >= 0", ig0)
	}
	s := 0
	for cand := 1; cand <= n; cand++ {
		if IGUpperBoundMulti(float64(cand)/float64(n), priors) > ig0 {
			break
		}
		s = cand
	}
	return s, nil
}

// MinSupportForFisher returns the largest absolute support s* such that
// FisherUpperBound(s/n) ≤ fr0 for every s ≤ s*, the Fisher-score
// variant of the strategy.
func MinSupportForFisher(fr0, p float64, n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("measures: n = %d, want > 0", n)
	}
	if fr0 < 0 {
		return 0, fmt.Errorf("measures: fr0 = %v, want >= 0", fr0)
	}
	s := 0
	for cand := 1; cand <= n; cand++ {
		if FisherUpperBound(float64(cand)/float64(n), p) > fr0 {
			break
		}
		s = cand
	}
	return s, nil
}

package featsel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dfpc/internal/bitset"
)

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

func cand(n int, rows ...int) Candidate {
	return Candidate{Cover: bitset.FromIndices(n, rows)}
}

// fixture: 8 rows, classes 0 = {0..3}, 1 = {4..7}.
func fixture() ([]int, []*bitset.Bitset) {
	labels := []int{0, 0, 0, 0, 1, 1, 1, 1}
	return labels, masksFor(labels, 2)
}

func TestMMRFSPicksMostRelevantFirst(t *testing.T) {
	labels, masks := fixture()
	cands := []Candidate{
		cand(8, 0, 4),       // useless: one from each class
		cand(8, 0, 1, 2, 3), // perfect class-0 feature
		cand(8, 0, 1, 4),    // mediocre
	}
	res, err := MMRFS(cands, masks, labels, Options{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 || res.Selected[0] != 1 {
		t.Fatalf("Selected = %v, want candidate 1 first", res.Selected)
	}
}

func TestMMRFSPenalizesRedundancy(t *testing.T) {
	labels, masks := fixture()
	// Candidates 0 and 1 are identical perfect class-0 features;
	// candidate 2 is a perfect class-1 feature with equal relevance.
	cands := []Candidate{
		cand(8, 0, 1, 2, 3),
		cand(8, 0, 1, 2, 3),
		cand(8, 4, 5, 6, 7),
	}
	res, err := MMRFS(cands, masks, labels, Options{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) < 2 {
		t.Fatalf("Selected = %v, want at least 2", res.Selected)
	}
	// Second pick must be the class-1 feature, not the duplicate.
	if res.Selected[1] != 2 {
		t.Fatalf("Selected = %v: redundancy not penalized", res.Selected)
	}
}

func TestMMRFSCoverageStopsSelection(t *testing.T) {
	labels, masks := fixture()
	// Two perfect complementary features cover everything once.
	cands := []Candidate{
		cand(8, 0, 1, 2, 3),
		cand(8, 4, 5, 6, 7),
		cand(8, 0, 1),
		cand(8, 2, 3),
	}
	res, err := MMRFS(cands, masks, labels, Options{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("Selected = %v, want exactly 2 with δ=1", res.Selected)
	}
}

func TestMMRFSHigherDeltaSelectsMore(t *testing.T) {
	labels, masks := fixture()
	cands := []Candidate{
		cand(8, 0, 1, 2, 3),
		cand(8, 4, 5, 6, 7),
		cand(8, 0, 1, 2),
		cand(8, 5, 6, 7),
		cand(8, 1, 2, 3),
		cand(8, 4, 5, 6),
	}
	res1, err := MMRFS(cands, masks, labels, Options{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := MMRFS(cands, masks, labels, Options{Coverage: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Selected) <= len(res1.Selected) {
		t.Fatalf("δ=2 selected %d, δ=1 selected %d; want more at higher δ",
			len(res2.Selected), len(res1.Selected))
	}
}

func TestMMRFSSkipsUselessCoverage(t *testing.T) {
	labels, masks := fixture()
	// Candidate 1 covers only already-covered rows with the same class;
	// after candidate 0 is selected it adds nothing and must be dropped,
	// not selected.
	cands := []Candidate{
		cand(8, 0, 1, 2, 3),
		cand(8, 0, 1),
		cand(8, 4, 5, 6, 7),
	}
	res, err := MMRFS(cands, masks, labels, Options{Coverage: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Selected {
		if s == 1 {
			t.Fatalf("Selected = %v: candidate 1 adds no coverage", res.Selected)
		}
	}
}

func TestMMRFSEmptyCandidates(t *testing.T) {
	labels, masks := fixture()
	res, err := MMRFS(nil, masks, labels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Fatalf("Selected = %v", res.Selected)
	}
}

func TestMMRFSCoverLengthMismatch(t *testing.T) {
	labels, masks := fixture()
	cands := []Candidate{{Cover: bitset.New(3)}}
	if _, err := MMRFS(cands, masks, labels, Options{}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestMMRFSFisherRelevance(t *testing.T) {
	labels, masks := fixture()
	cands := []Candidate{
		cand(8, 0, 4),       // useless
		cand(8, 0, 1, 2, 3), // perfect (Fisher +Inf → capped)
	}
	res, err := MMRFS(cands, masks, labels, Options{Relevance: Fisher})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 || res.Selected[0] != 1 {
		t.Fatalf("Selected = %v", res.Selected)
	}
	if math.IsInf(res.Relevance[1], 1) || math.IsNaN(res.Relevance[1]) {
		t.Fatalf("relevance not capped: %v", res.Relevance[1])
	}
}

func TestMMRFSTerminatesWithUncoverableRows(t *testing.T) {
	labels, masks := fixture()
	// No candidate covers rows 2,3,6,7 — selection must still stop.
	cands := []Candidate{
		cand(8, 0, 1),
		cand(8, 4, 5),
	}
	res, err := MMRFS(cands, masks, labels, Options{Coverage: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("Selected = %v, want both candidates then stop", res.Selected)
	}
}

func TestRedundancyEq9(t *testing.T) {
	a := cand(8, 0, 1, 2, 3)
	b := cand(8, 2, 3, 4, 5)
	// Jaccard = 2/6 = 1/3; min(S) = 0.5 → R = 1/6.
	if got := redundancy(a, b, 4, 4, 0.5, 0.9); math.Abs(got-1.0/6) > 1e-12 {
		t.Fatalf("redundancy = %v, want 1/6", got)
	}
	// Disjoint covers → 0 regardless of relevance.
	c := cand(8, 6, 7)
	if got := redundancy(a, c, 4, 2, 1, 1); got != 0 {
		t.Fatalf("disjoint redundancy = %v", got)
	}
	// Two empty covers → union 0 → defined as 0.
	e1, e2 := cand(8), cand(8)
	if got := redundancy(e1, e2, 0, 0, 1, 1); got != 0 {
		t.Fatalf("empty redundancy = %v", got)
	}
}

func TestMajorityClass(t *testing.T) {
	labels, masks := fixture()
	_ = labels
	if got := majorityClass(bitset.FromIndices(8, []int{0, 1, 4}), masks); got != 0 {
		t.Fatalf("majority = %d, want 0", got)
	}
	if got := majorityClass(bitset.FromIndices(8, []int{4, 5}), masks); got != 1 {
		t.Fatalf("majority = %d, want 1", got)
	}
	if got := majorityClass(bitset.New(8), masks); got != -1 {
		t.Fatalf("empty majority = %d, want -1", got)
	}
}

func TestTopK(t *testing.T) {
	labels, masks := fixture()
	_ = labels
	cands := []Candidate{
		cand(8, 0, 4),       // IG 0
		cand(8, 0, 1, 2, 3), // IG 1
		cand(8, 0, 1, 4),    // in between
	}
	res := TopK(cands, masks, InfoGain, 2)
	if len(res.Selected) != 2 || res.Selected[0] != 1 {
		t.Fatalf("TopK = %v", res.Selected)
	}
	if res := TopK(cands, masks, InfoGain, 100); len(res.Selected) != 3 {
		t.Fatalf("TopK over-length = %v", res.Selected)
	}
	if res := TopK(cands, masks, InfoGain, -1); len(res.Selected) != 0 {
		t.Fatalf("TopK(-1) = %v", res.Selected)
	}
}

// Property: MMRFS never selects the same candidate twice, selections are
// within range, and every selected feature has non-negative gain
// ordering (first has max relevance).
func TestQuickMMRFSInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(60)
		classes := 2 + r.Intn(3)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(classes)
		}
		masks := masksFor(labels, classes)
		cands := make([]Candidate, 3+r.Intn(20))
		for i := range cands {
			cov := bitset.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(3) == 0 {
					cov.Set(j)
				}
			}
			cands[i] = Candidate{Cover: cov}
		}
		res, err := MMRFS(cands, masks, labels, Options{Coverage: 1 + r.Intn(3)})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		maxRel := 0.0
		for _, c := range cands {
			_ = c
		}
		for i, rel := range res.Relevance {
			if majorityClass(cands[i].Cover, masks) >= 0 && rel > maxRel {
				maxRel = rel
			}
		}
		for k, s := range res.Selected {
			if s < 0 || s >= len(cands) || seen[s] {
				return false
			}
			seen[s] = true
			if k == 0 && res.Relevance[s] < maxRel-1e-9 {
				return false // first pick must be the most relevant coverable one
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package featsel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dfpc/internal/bitset"
	"dfpc/internal/datagen"
	"dfpc/internal/dataset"
	"dfpc/internal/discretize"
	"dfpc/internal/mining"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// randomPool draws a labelled pool of nCands candidates over 20–119
// rows and 2–4 classes. Every fifth cover duplicates an earlier one,
// so the gain argmax meets exact ties that only the index tie-break
// resolves; densities vary per candidate and include empty covers.
func randomPool(r *rand.Rand, nCands int) ([]Candidate, []*bitset.Bitset, []int) {
	n := 20 + r.Intn(100)
	classes := 2 + r.Intn(3)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	cands := make([]Candidate, nCands)
	for i := range cands {
		items := []int32{int32(i)}
		if i%5 == 4 {
			cands[i] = Candidate{Items: items, Cover: cands[r.Intn(i)].Cover}
			continue
		}
		density := r.Float64() * 0.6
		cov := bitset.New(n)
		for row := 0; row < n; row++ {
			if r.Float64() < density {
				cov.Set(row)
			}
		}
		cands[i] = Candidate{Items: items, Cover: cov}
	}
	return cands, masksFor(labels, classes), labels
}

// compareEager runs the lazy MMRFS and the eager oracle on one pool.
// Selected, Relevance and the accepted audit entries (all but their
// Iteration numbers) must agree exactly. Drop entries are not compared:
// the lazy loop retires a candidate as soon as it cannot contribute,
// often one the eager scan never reaches, so its drops and iteration
// count differ. Instead every lazy drop must name a candidate that,
// given the selections before it, correctly covers no instance still
// below δ; no candidate may be decided twice; the counters must match
// the trail; and the lazy loop's Eq. 9 evaluations must not exceed the
// eager loop's.
func compareEager(t *testing.T, name string, cands []Candidate, masks []*bitset.Bitset, labels []int, opt Options) {
	t.Helper()
	lazyObs, eagerObs := obs.New(), obs.New()
	opt.Obs = lazyObs
	lazy, err := MMRFS(cands, masks, labels, opt)
	if err != nil {
		t.Fatalf("%s: lazy: %v", name, err)
	}
	opt.Obs = eagerObs
	eager, err := mmrfsEager(cands, masks, labels, opt)
	if err != nil {
		t.Fatalf("%s: eager: %v", name, err)
	}
	if !reflect.DeepEqual(lazy.Selected, eager.Selected) {
		t.Fatalf("%s: Selected\n lazy  %v\n eager %v", name, lazy.Selected, eager.Selected)
	}
	if !reflect.DeepEqual(lazy.Relevance, eager.Relevance) {
		t.Fatalf("%s: Relevance differs", name)
	}
	if la, ea := acceptedEntries(lazy.Audit), acceptedEntries(eager.Audit); !reflect.DeepEqual(la, ea) {
		t.Fatalf("%s: accepted audit entries\n lazy  %+v\n eager %+v", name, la, ea)
	}
	delta := opt.withDefaults().Coverage
	covered := make([]int, len(labels))
	decided := make(map[int]bool, len(lazy.Audit))
	drops := 0
	for _, e := range lazy.Audit {
		if decided[e.Candidate] {
			t.Fatalf("%s: candidate %d decided twice", name, e.Candidate)
		}
		decided[e.Candidate] = true
		maj := majorityClass(cands[e.Candidate].Cover, masks)
		contributes := false
		cands[e.Candidate].Cover.ForEach(func(row int) {
			if labels[row] != maj {
				return
			}
			if covered[row] < delta {
				contributes = true
			}
			if e.Accepted {
				covered[row]++
			}
		})
		if !e.Accepted {
			drops++
			if contributes {
				t.Fatalf("%s: dropped candidate %d (iter %d) still covers an instance below δ", name, e.Candidate, e.Iteration)
			}
		}
	}
	lc, ec := lazyObs.Report("lazy").Counters, eagerObs.Report("eager").Counters
	if lc["mmrfs.iterations"] != int64(len(lazy.Audit)) {
		t.Fatalf("%s: mmrfs.iterations %d, audit entries %d", name, lc["mmrfs.iterations"], len(lazy.Audit))
	}
	for _, c := range []string{"mmrfs.dropped", "mmrfs.rejected_no_coverage"} {
		if lc[c] != int64(drops) {
			t.Fatalf("%s: %s %d, drop entries %d", name, c, lc[c], drops)
		}
	}
	if lc["mmrfs.selected"] != ec["mmrfs.selected"] {
		t.Fatalf("%s: mmrfs.selected lazy %d, eager %d", name, lc["mmrfs.selected"], ec["mmrfs.selected"])
	}
	if lc["mmrfs.redundancy_evals"] > ec["mmrfs.redundancy_evals"] {
		t.Fatalf("%s: mmrfs.redundancy_evals lazy %d > eager %d",
			name, lc["mmrfs.redundancy_evals"], ec["mmrfs.redundancy_evals"])
	}
}

// acceptedEntries returns the accepted entries of an audit trail with
// their Iteration numbers zeroed, the part of the trail on which the
// lazy loop and the eager oracle must agree exactly.
func acceptedEntries(trail []AuditEntry) []AuditEntry {
	var out []AuditEntry
	for _, e := range trail {
		if e.Accepted {
			e.Iteration = 0
			out = append(out, e)
		}
	}
	return out
}

// TestMMRFSDifferentialEager checks the lazy greedy loop against the
// eager oracle: on 300 seeded random pools (every tenth at or above
// parallelMinCandidates, so scoreAll and the oracle's chunked scan run
// wide) at δ ∈ {1, 3}, IG and Fisher, 1 and 8 workers, and on the Pat_FS
// pool of every datagen dataset.
func TestMMRFSDifferentialEager(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		for seed := int64(0); seed < 300; seed++ {
			r := rand.New(rand.NewSource(seed))
			nCands := 1 + r.Intn(200)
			if seed%10 == 0 {
				nCands = parallelMinCandidates + r.Intn(600-parallelMinCandidates+1)
			}
			cands, masks, labels := randomPool(r, nCands)
			for _, delta := range []int{1, 3} {
				for _, rel := range []Relevance{InfoGain, Fisher} {
					for _, w := range []parallel.Workers{1, 8} {
						name := fmt.Sprintf("seed %d (%d candidates) δ=%d %v workers=%d", seed, nCands, delta, rel, w)
						compareEager(t, name, cands, masks, labels, Options{Relevance: rel, Coverage: delta, Workers: w})
					}
				}
			}
		}
	})
	t.Run("datagen", func(t *testing.T) {
		for _, ds := range datagen.Names() {
			cands, masks, labels := patFSPool(t, ds)
			for _, delta := range []int{1, 3} {
				name := fmt.Sprintf("%s (%d candidates) δ=%d", ds, len(cands), delta)
				compareEager(t, name, cands, masks, labels, Options{Coverage: delta, Workers: 1})
			}
		}
	})
}

// patFSMinSup overrides the default 0.15 min_sup of the datagen Pat_FS
// pools where 0.15 would mine a pool too large for the eager oracle to
// finish in seconds under -race (anneal: 2.2M patterns). Each pool
// holds 50–7.3k candidates.
var patFSMinSup = map[string]float64{"anneal": 0.5, "chess": 0.8, "letter": 0.55, "waveform": 0.15}

// patFSPool mines dataset ds (seed 1) the way the Pat_FS pipeline does
// — discretize, encode, closed per-class patterns of length 2–6 — and
// returns the pool MMRFS selects from.
func patFSPool(t *testing.T, ds string) ([]Candidate, []*bitset.Bitset, []int) {
	t.Helper()
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
	minSup, ok := patFSMinSup[ds]
	if !ok {
		minSup = 0.15
	}
	mined, err := mining.MinePerClass(b, mining.PerClassOptions{MinSupport: minSup, Closed: true, MinLen: 2, MaxLen: 6, Workers: 1})
	if err != nil {
		t.Fatalf("%s: mine: %v", ds, err)
	}
	cands := make([]Candidate, len(mined))
	for i, pt := range mined {
		cands[i] = Candidate{Items: pt.Items, Cover: pt.Cover()}
	}
	return cands, b.ClassMasks, b.Labels
}

// TestMMRFSDifferentialEarlyDropWork checks that the early drop pays
// off in Eq. 9 work: on the datagen waveform, austral and auto Pat_FS
// pools at δ=3, the lazy loop evaluates redundancy at most a third as
// often as the eager oracle. Refreshing every candidate before
// dropping it would keep the ratio near 1 (78–100% on these pools).
func TestMMRFSDifferentialEarlyDropWork(t *testing.T) {
	for _, ds := range []string{"waveform", "austral", "auto"} {
		cands, masks, labels := patFSPool(t, ds)
		lazyObs, eagerObs := obs.New(), obs.New()
		opt := Options{Coverage: 3, Workers: 1, Obs: lazyObs}
		if _, err := MMRFS(cands, masks, labels, opt); err != nil {
			t.Fatalf("%s: lazy: %v", ds, err)
		}
		opt.Obs = eagerObs
		if _, err := mmrfsEager(cands, masks, labels, opt); err != nil {
			t.Fatalf("%s: eager: %v", ds, err)
		}
		lazy := lazyObs.Report("lazy").Counters["mmrfs.redundancy_evals"]
		eager := eagerObs.Report("eager").Counters["mmrfs.redundancy_evals"]
		t.Logf("%s (%d candidates) δ=3: mmrfs.redundancy_evals lazy %d, eager %d", ds, len(cands), lazy, eager)
		if 3*lazy > eager {
			t.Errorf("%s: mmrfs.redundancy_evals lazy %d > eager %d / 3", ds, lazy, eager)
		}
	}
}

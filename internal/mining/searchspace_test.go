package mining

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dfpc/internal/obs"
)

// sumDepthCounters totals every mine.depthNN.<kind> counter in the
// report and returns the total plus the set of depths that recorded
// anything.
func sumDepthCounters(counters map[string]int64, kind string) (total int64, depths map[int]int64) {
	depths = map[int]int64{}
	for name, v := range counters {
		if !strings.HasPrefix(name, "mine.depth") || !strings.HasSuffix(name, "."+kind) {
			continue
		}
		var d int
		if _, err := fmt.Sscanf(name, "mine.depth%02d.", &d); err != nil {
			continue
		}
		total += v
		depths[d] += v
	}
	return total, depths
}

// TestSearchSpaceCountersPerMiner runs every miner over the classic
// five-transaction dataset with an observer attached and checks the
// bookkeeping identities: emitted totals equal the returned pattern
// count, candidates dominate emissions, and depth buckets exist for
// each emitted pattern length.
func TestSearchSpaceCountersPerMiner(t *testing.T) {
	miners := []struct {
		name string
		run  func([][]int32, Options) ([]Pattern, error)
	}{
		{"fpclose", FPClose},
		{"fpgrowth", FPGrowth},
	}
	tx := classicTx()
	for _, m := range miners {
		t.Run(m.name, func(t *testing.T) {
			o := obs.New()
			ps, err := m.run(tx, Options{MinSupport: 2, MaxLen: 4, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) == 0 {
				t.Fatal("no patterns mined")
			}
			r := o.Report(m.name)

			emitted, emittedByDepth := sumDepthCounters(r.Counters, "emitted")
			if emitted != int64(len(ps)) {
				t.Fatalf("emitted counters total %d, want %d patterns", emitted, len(ps))
			}
			candidates, _ := sumDepthCounters(r.Counters, "candidates")
			if candidates < emitted {
				t.Fatalf("candidates %d < emitted %d: miner considered fewer sets than it returned", candidates, emitted)
			}
			// Each returned pattern length must be accounted for in its
			// depth bucket.
			wantByDepth := map[int]int64{}
			for _, p := range ps {
				d := p.Len()
				if d > 16 {
					d = 16
				}
				wantByDepth[d]++
			}
			for d, n := range wantByDepth {
				if emittedByDepth[d] != n {
					t.Fatalf("depth %d emitted %d, want %d (per-depth histogram drifted from output)",
						d, emittedByDepth[d], n)
				}
			}
		})
	}
}

// TestSearchSpacePruneCounters: FPClose's subsumption prune must be
// visible on the classic dataset, and a pattern budget must record the
// candidates it refused.
func TestSearchSpacePruneCounters(t *testing.T) {
	tx := classicTx()
	o := obs.New()
	if _, err := FPClose(tx, Options{MinSupport: 2, Obs: o}); err != nil {
		t.Fatal(err)
	}
	r := o.Report("fpclose")
	if sub, _ := sumDepthCounters(r.Counters, "pruned_subsumed"); sub == 0 {
		t.Fatal("fpclose recorded no subsumption prunes on the classic dataset")
	}

	o2 := obs.New()
	if _, err := FPGrowth(tx, Options{MinSupport: 1, MaxPatterns: 3, Obs: o2}); !errors.Is(err, ErrPatternBudget) {
		t.Fatalf("err = %v, want ErrPatternBudget", err)
	}
	r2 := o2.Report("fpgrowth")
	if refused, _ := sumDepthCounters(r2.Counters, "pruned_budget"); refused == 0 {
		t.Fatal("fpgrowth recorded no budget prunes after tripping MaxPatterns")
	}
}

// TestSearchSpaceNilObserver: both miners with no observer must
// neither panic nor change their output.
func TestSearchSpaceNilObserver(t *testing.T) {
	tx := classicTx()
	for _, run := range []func([][]int32, Options) ([]Pattern, error){FPClose, FPGrowth} {
		withObs, err := run(tx, Options{MinSupport: 2, MaxLen: 4, Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		without, err := run(tx, Options{MinSupport: 2, MaxLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !patternsEqual(withObs, without) {
			t.Fatal("observer changed miner output")
		}
	}
}

// TestDepthCountersClamp: depths below 1 and above maxDepthBucket land
// in the edge buckets instead of growing the namespace.
func TestDepthCountersClamp(t *testing.T) {
	o := obs.New()
	dc := newDepthCounters(o, "candidates")
	dc.inc(0)
	dc.inc(-3)
	dc.inc(1)
	dc.inc(maxDepthBucket + 10)
	r := o.Report("clamp")
	if got := r.Counters["mine.depth01.candidates"]; got != 3 {
		t.Fatalf("depth01 = %d, want 3 (two clamped + one direct)", got)
	}
	if got := r.Counters[fmt.Sprintf("mine.depth%02d.candidates", maxDepthBucket)]; got != 1 {
		t.Fatalf("depth%02d = %d, want 1", maxDepthBucket, got)
	}
	var nilDC *depthCounters
	nilDC.inc(3) // must not panic
	nilDC.add(3, 5)
}

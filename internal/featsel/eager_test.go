package featsel

import (
	"fmt"
	"log/slog"
	"math"

	"dfpc/internal/bitset"
	"dfpc/internal/faults"
	"dfpc/internal/parallel"
)

// mmrfsEager is the eager MMRFS that the lazy greedy loop replaced,
// kept verbatim as the differential oracle: every iteration rescans
// the whole pool for the gain argmax (chunked and merged in chunk
// order past parallelMinCandidates) and refreshes every live
// candidate's maxRed against each new selection. The only addition is
// the mmrfs.redundancy_evals counter in updateRed, which gives the
// eager work count the lazy loop must never exceed.
func mmrfsEager(cands []Candidate, classMasks []*bitset.Bitset, labels []int, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	g := opt.Guard
	if err := g.CheckNow(); err != nil {
		return nil, err
	}
	if err := opt.Faults.Hit(faults.FeatselMMRFS); err != nil {
		return nil, fmt.Errorf("featsel: %w", err)
	}
	n := len(labels)
	for i, c := range cands {
		if c.Cover == nil || c.Cover.Len() != n {
			return nil, fmt.Errorf("featsel: candidate %d cover length mismatch", i)
		}
	}
	// The span opens before the candidate buffers (scores, majority,
	// covered, redundancy caches) are allocated, so its alloc_bytes
	// histogram reflects the selection's real footprint instead of the
	// few KB the greedy loop itself allocates.
	sp := opt.Obs.Start("mmrfs").
		Attr("candidates", len(cands)).
		Attr("delta", opt.Coverage)
	res := &Result{Relevance: scoreAll(cands, classMasks, opt.Relevance, opt.Workers)}
	if len(cands) == 0 {
		sp.End()
		return res, nil
	}

	majority := make([]int, len(cands))
	for i, c := range cands {
		majority[i] = majorityClass(c.Cover, classMasks)
	}

	// coverable[i]: some candidate correctly covers row i; rows no
	// candidate can cover are excluded from the δ-coverage stopping
	// test, otherwise selection could never terminate.
	covered := make([]int, n)
	coverable := 0
	coverableMask := bitset.New(n)
	for i, c := range cands {
		if majority[i] < 0 {
			continue
		}
		c.Cover.ForEach(func(row int) {
			if labels[row] == majority[i] && !coverableMask.Get(row) {
				coverableMask.Set(row)
				coverable++
			}
		})
	}
	fullyCovered := 0

	// maxRed[i] tracks max_{β∈Fs} R(candidate_i, β), updated
	// incrementally as features join Fs.
	maxRed := make([]float64, len(cands))
	inSel := make([]bool, len(cands))

	// The per-iteration scans (gain argmax, redundancy update) go wide
	// only past the pool-size threshold; each chunk touches its own
	// index range, and chunk results merge in chunk order with strict
	// inequalities, reproducing the sequential lowest-index tie-break.
	workers := opt.Workers.Resolve()
	if len(cands) < parallelMinCandidates {
		workers = 1
	}
	chunks := parallel.Chunks(len(cands), workers)

	// scanGain returns the best candidate in [lo, hi), first index wins
	// ties via the strict >.
	scanGain := func(lo, hi int) (int, float64) {
		best, bestGain := -1, math.Inf(-1)
		for i := lo; i < hi; i++ {
			if inSel[i] || majority[i] < 0 {
				continue
			}
			gain := res.Relevance[i] - maxRed[i]
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		return best, bestGain
	}

	// pick returns the unselected candidate with maximal gain, or -1.
	pick := func() int {
		if workers <= 1 {
			best, _ := scanGain(0, len(cands))
			return best
		}
		type chunkBest struct {
			idx  int
			gain float64
		}
		bests := make([]chunkBest, len(chunks))
		// Chunks write only their own bests[c] slot and cannot fail.
		_ = parallel.ForEach(opt.Workers, len(chunks), func(c int) error {
			idx, gain := scanGain(chunks[c][0], chunks[c][1])
			bests[c] = chunkBest{idx: idx, gain: gain}
			return nil
		})
		best, bestGain := -1, math.Inf(-1)
		for _, b := range bests {
			if b.idx >= 0 && b.gain > bestGain {
				best, bestGain = b.idx, b.gain
			}
		}
		return best
	}

	// correctlyCoversUncovered reports whether candidate i correctly
	// covers at least one instance still below δ.
	correctlyCoversUncovered := func(i int) bool {
		found := false
		cands[i].Cover.ForEach(func(row int) {
			if !found && labels[row] == majority[i] && covered[row] < opt.Coverage {
				found = true
			}
		})
		return found
	}

	// updateRed refreshes maxRed[j] for j in [lo, hi) against the newly
	// selected candidate i; writes are index-partitioned by chunk.
	redEvals := opt.Obs.Counter("mmrfs.redundancy_evals")
	updateRed := func(i, lo, hi int) {
		for j := lo; j < hi; j++ {
			if inSel[j] || majority[j] < 0 {
				continue
			}
			redEvals.Inc()
			r := redundancy(cands[j], cands[i], cands[j].Cover.Count(), cands[i].Cover.Count(), res.Relevance[j], res.Relevance[i])
			if r > maxRed[j] {
				maxRed[j] = r
			}
		}
	}

	add := func(i int) {
		inSel[i] = true
		res.Selected = append(res.Selected, i)
		cands[i].Cover.ForEach(func(row int) {
			if labels[row] == majority[i] {
				covered[row]++
				if covered[row] == opt.Coverage {
					fullyCovered++
				}
			}
		})
		if workers <= 1 {
			updateRed(i, 0, len(cands))
			return
		}
		// Chunks write disjoint maxRed ranges and cannot fail.
		_ = parallel.ForEach(opt.Workers, len(chunks), func(c int) error {
			updateRed(i, chunks[c][0], chunks[c][1])
			return nil
		})
	}

	sp.Attr("coverable", coverable)
	iterations := opt.Obs.Counter("mmrfs.iterations")
	rejected := opt.Obs.Counter("mmrfs.rejected_no_coverage")
	gainHist := opt.Obs.Histogram("mmrfs.gain_microbits")
	audit := opt.Obs.Enabled()
	dropped := 0
	for {
		// Each iteration scans the whole candidate pool (pick + add are
		// O(|F|)), so poll the guard eagerly rather than amortized.
		if err := g.CheckNow(); err != nil {
			sp.End()
			return nil, err
		}
		if opt.MaxFeatures > 0 && len(res.Selected) >= opt.MaxFeatures {
			break
		}
		if fullyCovered >= coverable {
			break
		}
		i := pick()
		if i < 0 {
			break // pool exhausted
		}
		iterations.Inc()
		accepted := correctlyCoversUncovered(i)
		if audit {
			gain := res.Relevance[i] - maxRed[i]
			reason := "selected"
			if !accepted {
				reason = "no-uncovered-instance"
			}
			res.Audit = append(res.Audit, AuditEntry{
				Iteration:  len(res.Audit) + 1,
				Candidate:  i,
				Items:      cands[i].Items,
				Relevance:  res.Relevance[i],
				Redundancy: maxRed[i],
				Gain:       gain,
				Accepted:   accepted,
				Reason:     reason,
			})
			gainHist.Observe(int64(gain * 1e6))
		}
		if accepted {
			add(i)
		} else {
			// Cannot contribute coverage: drop from the pool without
			// selecting (Algorithm 1 line 7 removes β from F either way).
			inSel[i] = true
			dropped++
			rejected.Inc()
		}
	}
	opt.Obs.Counter("mmrfs.selected").Add(int64(len(res.Selected)))
	opt.Obs.Counter("mmrfs.dropped").Add(int64(dropped))
	// Coverage residual: instances some candidate could correctly cover
	// that still sit below δ when selection stops.
	opt.Obs.Gauge("mmrfs.coverage_residual").Set(float64(coverable - fullyCovered))
	sp.Attr("selected", len(res.Selected)).Attr("residual", coverable-fullyCovered).End()
	if opt.Log != nil {
		opt.Log.Debug("MMRFS selection done",
			slog.Int("candidates", len(cands)),
			slog.Int("selected", len(res.Selected)),
			slog.Int("dropped", dropped),
			slog.Int("coverage_residual", coverable-fullyCovered))
	}

	// inSel was reused to mark dropped candidates; rebuild Selected-only
	// marks are already in res.Selected, nothing to undo.
	return res, nil
}

// Package featsel implements the paper's feature-selection step:
// MMRFS (Algorithm 1), a Maximal-Marginal-Relevance-style greedy search
// that selects patterns that are relevant to the class label and
// minimally redundant with the already-selected set, under a database
// coverage constraint δ. It also provides the plain relevance filters
// (top-k information gain) used for the Item_FS baseline in Tables 1–2.
package featsel

import (
	"fmt"
	"log/slog"
	"math"
	"sort"

	"dfpc/internal/bitset"
	"dfpc/internal/faults"
	"dfpc/internal/guard"
	"dfpc/internal/measures"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// Relevance selects the relevance measure S(α) used by MMRFS
// (Definition 3: information gain or Fisher score).
type Relevance int

const (
	// InfoGain uses IG(C|X) as relevance.
	InfoGain Relevance = iota
	// Fisher uses the Fisher score as relevance.
	Fisher
)

func (r Relevance) String() string {
	switch r {
	case InfoGain:
		return "information-gain"
	case Fisher:
		return "fisher-score"
	default:
		return fmt.Sprintf("Relevance(%d)", int(r))
	}
}

// relevanceCap bounds relevance so that +Inf Fisher scores (perfectly
// separating features) stay arithmetically safe inside the redundancy
// product of Eq. 9.
const relevanceCap = 1e9

// Candidate is one feature candidate: an itemset together with its
// coverage bitset over the training rows.
type Candidate struct {
	Items []int32
	Cover *bitset.Bitset
}

// Options configures MMRFS.
type Options struct {
	// Relevance is the S measure (default InfoGain).
	Relevance Relevance
	// Coverage is δ: selection stops once every coverable training
	// instance is correctly covered δ times (default 1).
	Coverage int
	// Guard, when non-nil, bounds the greedy loop; selection aborts
	// with an error satisfying errors.Is(err, guard.ErrCanceled) (or
	// guard.ErrDeadline). The caller builds it; nil costs nothing.
	Guard *guard.Guard
	// Obs, when non-nil, records the MMRFS span, iteration/selection
	// counters, and the final coverage residual. Nil disables recording.
	Obs *obs.Observer
	// Log, when non-nil, receives one structured DEBUG record per
	// selection run (candidates, selected, coverage residual). Nil
	// disables logging.
	Log *slog.Logger
	// Workers bounds the worker pool that scores S(α) for every
	// candidate (0 = GOMAXPROCS, 1 = sequential); pools smaller than
	// parallelMinCandidates are scored in place. The greedy loop is
	// sequential, so the selected set is identical at any worker count.
	Workers parallel.Workers
	// Faults, when non-nil, enables deterministic fault injection at
	// the selection entry (point featsel.mmrfs). Nil is free.
	Faults *faults.Registry
}

func (o Options) withDefaults() Options {
	if o.Coverage <= 0 {
		o.Coverage = 1
	}
	return o
}

// Result reports the outcome of a selection run.
type Result struct {
	// Selected holds indices into the candidate slice, in selection
	// order (most relevant first).
	Selected []int
	// Relevance holds S(α) for every candidate (same indexing as the
	// input slice), useful for diagnostics and the figures.
	Relevance []float64
	// Audit is the per-iteration decision trail, recorded only when
	// Options.Obs is enabled (the greedy loop is sequential, so the
	// trail is identical at any worker count). Entries appear in
	// decision order; accepted entries correspond 1:1 with Selected.
	Audit []AuditEntry
}

// AuditEntry records one MMRFS iteration's decision: which candidate
// was selected or dropped, and the Eq. 10 quantities behind it. A
// selected candidate is the exact gain argmax. A dropped one is
// recorded when it is retired, which can be before its redundancy was
// brought up to date against every selection.
type AuditEntry struct {
	// Iteration numbers decisions from 1.
	Iteration int `json:"iter"`
	// Candidate indexes the input candidate slice.
	Candidate int `json:"candidate"`
	// Items is the candidate's itemset.
	Items []int32 `json:"items"`
	// Relevance is S(α); Redundancy is max R(α,β) over the selections
	// the candidate had seen at decision time; Gain is their
	// difference (Eq. 10). For a selected entry that is every
	// selection, so both are exact. For a drop entry Redundancy is a
	// lower bound and Gain an upper bound.
	Relevance  float64 `json:"relevance"`
	Redundancy float64 `json:"redundancy"`
	Gain       float64 `json:"gain"`
	// Accepted is true when the candidate joined the selected set;
	// Reason is "selected" or "no-uncovered-instance" (the candidate
	// correctly covers no instance still below δ and is dropped).
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason"`
}

// parallelMinCandidates is the candidate-pool size below which
// scoreAll stays sequential: spawning a chunk per worker costs more
// than scoring a few hundred candidates in place.
const parallelMinCandidates = 512

// scoreAll computes S(α) for each candidate, fanning the (independent,
// per-element) measure evaluations out over w workers when the pool is
// large enough to pay for the scheduling.
func scoreAll(cands []Candidate, classMasks []*bitset.Bitset, rel Relevance, w parallel.Workers) []float64 {
	scores := make([]float64, len(cands))
	scoreRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			switch rel {
			case Fisher:
				s = measures.FisherScore(cands[i].Cover, classMasks)
			default:
				s = measures.InfoGain(cands[i].Cover, classMasks)
			}
			if math.IsInf(s, 1) || s > relevanceCap {
				s = relevanceCap
			}
			scores[i] = s
		}
	}
	workers := w.Resolve()
	if workers <= 1 || len(cands) < parallelMinCandidates {
		scoreRange(0, len(cands))
		return scores
	}
	chunks := parallel.Chunks(len(cands), workers)
	// Closures write only their own chunk's scores[i] slots and cannot
	// fail, so the pool never returns an error.
	_ = parallel.ForEach(w, len(chunks), func(c int) error {
		scoreRange(chunks[c][0], chunks[c][1])
		return nil
	})
	return scores
}

// redundancy implements Eq. 9: R(α,β) = P(α,β) / (P(α)+P(β)−P(α,β)) ×
// min(S(α), S(β)), i.e. the Jaccard similarity of the coverage sets
// scaled by the smaller relevance. na and nb are the popcounts of a's
// and b's covers, which the caller computes once per candidate, so one
// evaluation costs a single AndCount.
func redundancy(a, b Candidate, na, nb int, sa, sb float64) float64 {
	inter := a.Cover.AndCount(b.Cover)
	union := na + nb - inter
	if union == 0 {
		return 0
	}
	jac := float64(inter) / float64(union)
	return jac * math.Min(sa, sb)
}

// majorityClass returns the majority class among the rows covered by
// cov (ties broken toward the smaller class index), or -1 for an empty
// cover. A feature "correctly covers" an instance when the instance's
// class matches this label — the sense in which Algorithm 1 requires
// each selected pattern to correctly cover at least one instance.
func majorityClass(cov *bitset.Bitset, classMasks []*bitset.Bitset) int {
	best, bestCount := -1, 0
	for c, mask := range classMasks {
		n := cov.AndCount(mask)
		if n > bestCount {
			best, bestCount = c, n
		}
	}
	return best
}

// gainHeap is MMRFS's max-heap of candidate indices, ordered by gain
// rel[i] − maxRed[i] descending, then index ascending (the eager
// scan's first-index-wins tie-break).
type gainHeap struct {
	idx         []int32
	rel, maxRed []float64
}

// above reports whether candidate a orders before candidate b.
func (h *gainHeap) above(a, b int32) bool {
	ga, gb := h.rel[a]-h.maxRed[a], h.rel[b]-h.maxRed[b]
	return ga > gb || (ga == gb && a < b)
}

// down restores the heap order below position k.
func (h *gainHeap) down(k int) {
	for {
		top := k
		for _, c := range [2]int{2*k + 1, 2*k + 2} {
			if c < len(h.idx) && h.above(h.idx[c], h.idx[top]) {
				top = c
			}
		}
		if top == k {
			return
		}
		h.idx[k], h.idx[top] = h.idx[top], h.idx[k]
		k = top
	}
}

// MMRFS runs Algorithm 1 over the candidates. labels[i] is the class of
// training row i; classMasks partition the rows by class. It returns
// the selected candidate indices in selection order.
//
// The search starts from the most relevant pattern, then repeatedly
// adds the pattern with maximal marginal gain g(α) = S(α) −
// max_{β∈Fs} R(α,β) (Eq. 10), provided it correctly covers at least one
// instance that is not yet covered δ times; it stops when every
// coverable instance is covered δ times or the candidate pool is
// exhausted.
//
// The loop is lazy greedy with early drop. A max-heap holds each
// candidate's stale gain, an upper bound on its true gain. Each
// iteration looks at the top: a candidate that can no longer
// contribute coverage is dropped before any Eq. 9 work; a stale one is
// refreshed against the selections it has not seen and re-sifted; a
// fresh one is selected. Because "can no longer contribute" is
// monotone, the early drop never changes the argmax among candidates
// that still can, so Selected equals the eager rescan's, tie-break
// included.
func MMRFS(cands []Candidate, classMasks []*bitset.Bitset, labels []int, opt Options) (*Result, error) {
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

	// majority[i] is the class candidate i correctly covers (-1 for an
	// empty cover) and size[i] its popcount, both computed once; int32
	// keeps the two arrays at the footprint of one []int.
	majority := make([]int32, len(cands))
	size := make([]int32, len(cands))
	for i, c := range cands {
		majority[i] = int32(majorityClass(c.Cover, classMasks))
		size[i] = int32(c.Cover.Count())
	}

	// coverableMask holds the rows some candidate correctly covers;
	// rows no candidate can cover are excluded from the δ-coverage
	// stopping test, otherwise selection could never terminate.
	coverableMask, scratch := bitset.New(n), bitset.New(n)
	for i, c := range cands {
		if majority[i] < 0 {
			continue
		}
		scratch.CopyFrom(c.Cover)
		scratch.And(classMasks[majority[i]])
		coverableMask.Or(scratch)
	}
	coverable := coverableMask.Count()
	fullyCovered := 0

	// covered[row] counts the selections that correctly cover row;
	// below[c] holds the rows of class c still covered fewer than δ
	// times. Bits of below only ever clear, so a candidate whose cover
	// misses below[majority] can never contribute again.
	covered := make([]int, n)
	below := make([]*bitset.Bitset, len(classMasks))
	for c, mask := range classMasks {
		below[c] = mask.Clone()
	}

	// maxRed[i] is max R(candidate_i, β) over the first seen[i]
	// members of Fs. maxRed only grows as Fs grows, so a stale gain
	// S(α) − maxRed(α) bounds the true gain from above: lazy greedy
	// (Minoux 1978; CELF) refreshes only the heap's top against the
	// selections it has not seen and accepts it once it is fresh,
	// which is exactly the eager argmax, lowest-index tie-break
	// included.
	maxRed := make([]float64, len(cands))
	seen := make([]int32, len(cands))
	h := gainHeap{rel: res.Relevance, maxRed: maxRed, idx: make([]int32, 0, len(cands))}
	for i := range cands {
		if majority[i] >= 0 {
			h.idx = append(h.idx, int32(i))
		}
	}
	for k := len(h.idx)/2 - 1; k >= 0; k-- {
		h.down(k)
	}

	add := func(i int) {
		res.Selected = append(res.Selected, i)
		c := majority[i]
		cands[i].Cover.ForEach(func(row int) {
			if labels[row] == int(c) {
				covered[row]++
				if covered[row] == opt.Coverage {
					fullyCovered++
					below[c].Clear(row)
				}
			}
		})
	}

	sp.Attr("coverable", coverable)
	iterations := opt.Obs.Counter("mmrfs.iterations")
	rejected := opt.Obs.Counter("mmrfs.rejected_no_coverage")
	redEvals := opt.Obs.Counter("mmrfs.redundancy_evals")
	gainHist := opt.Obs.Histogram("mmrfs.gain_microbits")
	audit := opt.Obs.Enabled()
	dropped := 0
	for {
		if err := g.Check(); err != nil {
			sp.End()
			return nil, err
		}
		if fullyCovered >= coverable || len(h.idx) == 0 {
			break
		}
		i := int(h.idx[0])
		var accepted bool
		switch {
		case cands[i].Cover.AndCount(below[majority[i]]) == 0:
			// It correctly covers no instance still below δ, and never
			// will again: drop it before paying for Eq. 9.
		case int(seen[i]) < len(res.Selected):
			// Stale: refresh against the selections it has not seen
			// (Eq. 9 against the new members of Fs only) and re-sift.
			for _, j := range res.Selected[seen[i]:] {
				if r := redundancy(cands[i], cands[j], int(size[i]), int(size[j]), res.Relevance[i], res.Relevance[j]); r > maxRed[i] {
					maxRed[i] = r
				}
			}
			redEvals.Add(int64(len(res.Selected) - int(seen[i])))
			seen[i] = int32(len(res.Selected))
			h.down(0)
			continue
		default:
			// Fresh and able to contribute: the exact gain argmax.
			accepted = true
		}
		// Algorithm 1 line 7 removes the pick from F whether or not it
		// is selected.
		h.idx[0] = h.idx[len(h.idx)-1]
		h.idx = h.idx[:len(h.idx)-1]
		h.down(0)
		iterations.Inc()
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
	return res, nil
}

// TopK returns the indices of the k candidates with the highest
// relevance (no redundancy or coverage reasoning) — the conventional
// filter-style feature selection used for the Item_FS baseline.
func TopK(cands []Candidate, classMasks []*bitset.Bitset, rel Relevance, k int) *Result {
	res := &Result{Relevance: scoreAll(cands, classMasks, rel, 1)}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if res.Relevance[idx[a]] != res.Relevance[idx[b]] {
			return res.Relevance[idx[a]] > res.Relevance[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	res.Selected = idx[:k]
	return res
}

// FireRates returns, per candidate, the fraction of the n training
// rows its coverage bitset fires on. This is the fit-time reference
// the modelobs drift layer compares live pattern fire rates against.
// core passes the coverage bitmaps mining.MinePerClass built once per
// pattern (the ones MMRFS selected on), so the baseline costs no extra
// pass over the data.
func FireRates(cands []Candidate, n int) []float64 {
	out := make([]float64, len(cands))
	if n <= 0 {
		return out
	}
	for i, c := range cands {
		if c.Cover != nil {
			out[i] = float64(c.Cover.Count()) / float64(n)
		}
	}
	return out
}

package core

import (
	"sort"

	"dfpc/internal/dataset"
	"dfpc/internal/featsel"
	"dfpc/internal/modelobs"
	"dfpc/internal/obs"
)

// computeBaseline records the training reference distribution the
// modelobs drift layer scores live traffic against: label priors, the
// model's own predicted-class mix on the training rows, per-pattern
// fire rates from the selection-time coverage bitmaps, and confidence
// and feature-density histograms in the obs log2 bucket layout. It
// runs at the tail of every successful Fit (one extra predict pass
// over the training rows — small next to SMO/tree training) so every
// saved model carries its own drift reference. Deterministic: no
// clocks, no randomness, and the row order is the fit order.
func (p *Pipeline) computeBaseline(b *dataset.Binary, x [][]int32) {
	sp := p.cfg.Obs.Start("baseline").Attr("rows", len(x))
	defer sp.End()
	n := len(x)
	bl := &modelobs.Baseline{
		Rows:        n,
		NumClasses:  b.NumClasses(),
		Priors:      make([]float64, b.NumClasses()),
		PredMix:     make([]float64, b.NumClasses()),
		ConfHist:    make([]int64, obs.NumHistBuckets),
		DensityHist: make([]int64, obs.NumHistBuckets),
	}
	if n == 0 {
		p.baseline = bl
		return
	}
	for _, y := range b.Labels {
		bl.Priors[y]++
	}
	for c := range bl.Priors {
		bl.Priors[c] /= float64(n)
	}
	if len(p.patterns) > 0 {
		cands := make([]featsel.Candidate, len(p.patterns))
		for i, pt := range p.patterns {
			cands[i] = featsel.Candidate{Items: pt.Items, Cover: pt.Cover()}
		}
		bl.FireRate = featsel.FireRates(cands, n)
	}
	sc := p.newRowScorer()
	confs := make([]int64, 0, n)
	for _, fv := range x {
		cls, conf := sc.predictConf(fv)
		if cls >= 0 && cls < len(bl.PredMix) {
			bl.PredMix[cls]++
		}
		bl.DensityHist[obs.BucketIndex(int64(len(fv)))]++
		m := modelobs.ConfMicro(conf)
		bl.ConfHist[obs.BucketIndex(m)]++
		confs = append(confs, m)
	}
	for c := range bl.PredMix {
		bl.PredMix[c] /= float64(n)
	}
	bl.HasConf = true
	sort.Slice(confs, func(i, j int) bool { return confs[i] < confs[j] })
	bl.LowConfCut = confs[(n-1)/10]
	below := 0
	for _, c := range confs {
		if c <= bl.LowConfCut {
			below++
		}
	}
	bl.LowConfRate = float64(below) / float64(n)
	p.baseline = bl
	if o := p.cfg.Obs; o.Enabled() {
		o.Counter("baseline.rows").Add(int64(n))
		o.Gauge("baseline.low_conf_rate").Set(bl.LowConfRate)
	}
}

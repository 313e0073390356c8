package main

import (
	"context"
	"runtime"
	"slices"
	"time"
)

// runTraced measures the per-layer metrics. Each fit unit fits every
// part three times: through the public API, by the layer replay
// untraced, and by the replay with spans. The replay must reproduce the
// API's fit exactly (mined and selected pattern counts, trie nodes, and
// every held-out prediction) or the run fails. The workload's traced
// fit units, scaled to seconds by reps, each give a sample, and each
// metric is the median over units; then one latency block goes to the
// first unit's models, through the API and through the traced replay.
func runTraced(ctx context.Context, w *workload, seed int64, seconds float64, t *tracer) *result {
	r := newResult(w)
	sp, err := w.setUp(seed)
	if !r.check(err == nil, "set-up: %v", err) {
		return r
	}
	samples := map[string][]float64{}
	var models []*fitted
	var replays []*replayed
	for range reps(w.traced, seconds) {
		apis, rps, u := tracedUnit(ctx, r, w, sp, t)
		if apis == nil {
			continue
		}
		if models == nil {
			models, replays = apis, rps
		}
		for _, m := range perLayer {
			if v, ok := u[m.name]; ok {
				samples[m.name] = append(samples[m.name], v)
			}
		}
	}
	if models == nil {
		return r
	}
	for name, xs := range samples {
		r.metrics[name] = median(xs)
	}
	tracedRequests(ctx, r, w, models, replays, t)
	return r
}

// tracedUnit runs one traced fit unit and returns, per part, the
// API's and the replay's models, and the unit's per-layer values summed
// over the parts. It returns nil models when a fit or check failed.
func tracedUnit(ctx context.Context, r *result, w *workload, sp []split, t *tracer) ([]*fitted, []*replayed, map[string]float64) {
	u := map[string]float64{}
	apis, reps := make([]*fitted, len(sp)), make([]*replayed, len(sp))
	t.newRun()
	var apiS, plainS, tracedS float64
	timed := func(f func() error) (float64, error) {
		runtime.GC()
		t0 := time.Now()
		err := f()
		return time.Since(t0).Seconds(), err
	}
	for i, s := range sp {
		name := w.parts[i].dataset
		clf := w.newClassifier()
		secs, err := timed(func() error { return clf.Fit(s.d, s.train) })
		apiS += secs
		if !r.check(err == nil, "fit %s: %v", name, err) {
			return nil, nil, nil
		}
		secs, err = timed(func() error { _, err := replayFit(nil, w, s); return err })
		plainS += secs
		if !r.check(err == nil, "replay %s: %v", name, err) {
			return nil, nil, nil
		}
		from := len(t.spans)
		var rp *replayed
		secs, err = timed(func() (err error) { rp, err = replayFit(t, w, s); return err })
		tracedS += secs
		if !r.check(err == nil, "traced replay %s: %v", name, err) {
			return nil, nil, nil
		}

		nodes := 0
		if m := clf.Matcher(); m != nil {
			nodes = m.NumNodes()
		}
		r.check(rp.mined == clf.Stats.MinedCount && rp.selected == clf.Stats.FeatureCount && rp.nodes == nodes,
			"%s: replay mined/selected/nodes %d/%d/%d, Fit %d/%d/%d", name,
			rp.mined, rp.selected, rp.nodes, clf.Stats.MinedCount, clf.Stats.FeatureCount, nodes)
		f, err := newFitted(ctx, clf, s)
		if !r.check(err == nil, "predict %s: %v", name, err) {
			return nil, nil, nil
		}
		sc := &rowScratch{}
		bad := 0
		for _, row := range s.test {
			if cls, err := rp.predict(nil, sc, s.d.Rows[row]); err != nil || cls != f.ref[row] {
				bad++
			}
		}
		r.tally(len(s.test), bad, "%s: %d held-out predictions of the replay differ from Predict", name, bad)
		apis[i], reps[i] = f, rp

		dur, self := layerTimes(t.spans, from)
		sec := func(names ...string) float64 {
			var ns int64
			for _, n := range names {
				ns += dur[n]
			}
			return float64(ns) / 1e9
		}
		u["discretize.fit_s"] += sec("discretize.fit", "discretize.apply")
		u["dataset.encode_s"] += sec("dataset.encode")
		u["mining.mine_s"] += sec("mining.mine")
		u["mining.alloc_mb"] += rp.mineAllocMB
		u["mining.patterns"] += float64(rp.mined)
		u["featsel.select_s"] += sec("featsel.select")
		u["featsel.alloc_mb"] += rp.selectAllocMB
		u["featsel.selected"] += float64(rp.selected)
		u["patmatch.compile_s"] += sec("patmatch.compile")
		u["patmatch.nodes"] += float64(rp.nodes)
		u["patmatch.featurize_s"] += sec("patmatch.featurize")
		u["learner.train_s"] += sec("svm.train", "c45.train")
		u["learner.baseline_score_s"] += sec("svm.baseline_score", "c45.baseline_score")
		u["svm.iterations"] += float64(rp.iterations)
		u["svm.support_vectors"] += float64(rp.supportVectors)
		u["svm.pairs"] += float64(rp.pairs)
		u["c45.nodes"] += float64(rp.treeNodes)
		u["modelobs.baseline_s"] += float64(self["modelobs.baseline"]) / 1e9
	}
	if u["mining.patterns"] > 0 {
		u["featsel.selected_frac"] = u["featsel.selected"] / u["mining.patterns"]
	}
	u["core.unattributed_frac"] = 1 - plainS/apiS
	u["bench.trace_overhead_frac"] = tracedS/plainS - 1
	return apis, reps, u
}

// tracedRequests sends one latency block to the models of a unit
// twice, in the same order: through the held BatchPredictors, timed by
// the clock alone, and then through the traced replay, whose every
// prediction must match. It also reads the allocations of one bulk
// round.
func tracedRequests(ctx context.Context, r *result, w *workload, models []*fitted, reps []*replayed, t *tracer) {
	out := make([]int, batchRows)
	apiNS, apiCls := make([]int64, blockReqs), make([]int, blockReqs)
	for j := range apiNS {
		f, row := request(models, j)
		t0 := time.Now()
		err := f.bp.PredictInto(ctx, f.d, row, out[:1])
		apiNS[j] = int64(time.Since(t0))
		if apiCls[j] = out[0]; err != nil {
			apiCls[j] = -1
		}
	}

	scratch := make([]*rowScratch, len(reps))
	for i := range scratch {
		scratch[i] = &rowScratch{}
	}
	var replayNS, rowcode, match, score []int64
	fired, bad := 0, 0
	for j := 0; j < blockReqs; j++ {
		f, row := request(models, j)
		sc := scratch[j%len(reps)]
		t.newRun()
		from := len(t.spans)
		cls, err := reps[j%len(reps)].predict(t, sc, f.d.Rows[row[0]])
		if err != nil || cls != apiCls[j] || cls != f.ref[row[0]] {
			bad++
		}
		fired += len(sc.fv) - len(sc.tx)
		for _, s := range t.spans[from:] {
			d := s.End - s.Start
			switch s.Name {
			case "predict":
				replayNS = append(replayNS, d)
			case "discretize.rowcode":
				rowcode = append(rowcode, d)
			case "patmatch.match":
				match = append(match, d)
			case "svm.score", "c45.score":
				score = append(score, d)
			}
		}
	}
	r.tally(blockReqs, bad, "%d traced requests failed or differ from Predict", bad)
	med := func(ns []int64) float64 { p50, _ := latency(ns); return p50 }
	r.metrics["discretize.rowcode_ns"] = med(rowcode)
	r.metrics["patmatch.match_ns"] = med(match)
	r.metrics["learner.score_ns"] = med(score)
	r.metrics["patmatch.fired_per_row"] = float64(fired) / blockReqs
	r.metrics["core.predict_unattributed_ns"] = med(apiNS) - med(replayNS)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before, rows := ms.Mallocs, 0
	bad = 0
	for _, f := range models {
		for b := 0; b < w.bulk; b++ {
			if err := f.bp.PredictInto(ctx, f.d, f.bulk, out); err != nil || !slices.Equal(out, f.want) {
				bad++
			}
			rows += len(f.bulk)
		}
	}
	runtime.ReadMemStats(&ms)
	r.tally(len(models)*w.bulk, bad, "%d bulk batches failed or differ from the reference", bad)
	r.metrics["core.predict_allocs_per_row"] = float64(ms.Mallocs-before) / float64(rows)
}

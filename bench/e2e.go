package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"dfpc"
	"dfpc/internal/core"
)

// result is what one run of one workload measured and checked.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
}

func newResult(w *workload) *result {
	return &result{workload: w.name, metrics: map[string]float64{}}
}

// check counts one checked operation and reports it on stderr when it
// failed.
func (r *result) check(ok bool, format string, args ...any) bool {
	bad := 0
	if !ok {
		bad = 1
	}
	r.tally(1, bad, format, args...)
	return ok
}

// tally counts n checked operations of which bad failed.
func (r *result) tally(n, bad int, format string, args ...any) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.workload, fmt.Sprintf(format, args...))
	}
}

// fitted is one part's model, with the held BatchPredictor that
// serves it and the reference predictions every later request is
// checked against.
type fitted struct {
	split
	bp   *core.BatchPredictor
	ref  []int // ref[row] is the prediction of held-out row row
	want []int // the reference of the bulk batch
}

// newFitted predicts every held-out row of a fitted classifier, in
// batches of batchRows through one BatchPredictor that it keeps.
func newFitted(ctx context.Context, clf *dfpc.Classifier, s split) (*fitted, error) {
	bp, err := clf.NewBatchPredictor()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(s.test))
	for off := 0; off < len(s.test); off += batchRows {
		end := min(off+batchRows, len(s.test))
		if err := bp.PredictInto(ctx, s.d, s.test[off:end], out[off:end]); err != nil {
			return nil, err
		}
	}
	f := &fitted{split: s, bp: bp, ref: make([]int, s.d.NumRows()), want: make([]int, len(s.bulk))}
	for j, row := range s.test {
		f.ref[row] = out[j]
	}
	for j, row := range s.bulk {
		f.want[j] = f.ref[row]
	}
	return f, nil
}

// request returns the model and the one-row batch of request j of a
// latency block: requests go round-robin over the parts.
func request(models []*fitted, j int) (*fitted, []int) {
	f := models[j%len(models)]
	return f, f.block[j/len(models):][:1]
}

// fitAll fits every part once, the timed work of one fit unit, and
// returns the classifiers with the unit's wall time and allocated MB.
// It returns nil classifiers when a fit failed.
func fitAll(r *result, w *workload, sp []split) ([]*dfpc.Classifier, float64, float64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	clfs := make([]*dfpc.Classifier, len(sp))
	var secs float64
	for i, s := range sp {
		clfs[i] = w.newClassifier()
		t0 := time.Now()
		err := clfs[i].Fit(s.d, s.train)
		secs += time.Since(t0).Seconds()
		if !r.check(err == nil, "fit %s: %v", w.parts[i].dataset, err) {
			return nil, 0, 0
		}
	}
	runtime.ReadMemStats(&ms)
	return clfs, secs, float64(ms.TotalAlloc-before) / (1 << 20)
}

// checkModels checks the first fit unit's models: pooled held-out
// accuracy against the workload's floor, and SaveModel → LoadModel
// predicting every held-out row as the fitted model does. It returns
// the models ready to serve, their saved bytes and the accuracy, or nil
// models when a check failed.
func checkModels(ctx context.Context, r *result, w *workload, sp []split, clfs []*dfpc.Classifier) ([]*fitted, [][]byte, float64) {
	models := make([]*fitted, len(sp))
	saved := make([][]byte, len(sp))
	correct, total := 0, 0
	for i, s := range sp {
		name := w.parts[i].dataset
		f, err := newFitted(ctx, clfs[i], s)
		if !r.check(err == nil, "predict %s: %v", name, err) {
			return nil, nil, 0
		}
		for _, row := range s.test {
			if f.ref[row] == s.d.Labels[row] {
				correct++
			}
		}
		total += len(s.test)
		var buf bytes.Buffer
		err = dfpc.SaveModel(&buf, clfs[i])
		if !r.check(err == nil, "save %s: %v", name, err) {
			return nil, nil, 0
		}
		saved[i] = buf.Bytes()
		loaded, err := dfpc.LoadModel(bytes.NewReader(saved[i]))
		if !r.check(err == nil, "load %s: %v", name, err) {
			return nil, nil, 0
		}
		lf, err := newFitted(ctx, loaded, s)
		if !r.check(err == nil && slices.Equal(lf.ref, f.ref), "%s: loaded model predicts differently (err %v)", name, err) {
			return nil, nil, 0
		}
		models[i] = f
	}
	acc := float64(correct) / float64(total)
	if !r.check(acc >= w.floor, "accuracy %.4f below the floor %.2f", acc, w.floor) {
		return nil, nil, 0
	}
	return models, saved, acc
}

// runEndToEnd measures the workload through the public API with
// tracing off: setupReps back-to-back set-ups, then the workload's fit
// units with its predict rounds spread evenly between them, so that
// both kinds of sample span the whole run. Both counts are scaled to
// seconds by reps. Every fit unit repeats the same fits; the first
// unit's models are checked and serve every predict round, and every
// later unit must save byte-identical models.
//
// Each timing reports the run's best sample: the fastest fit unit, and
// the round with the highest throughput and the block with the lowest
// p50 and p99. Every sample does identical work and the host's noise
// only adds time, so across runs the best of a fixed number of samples
// repeats more closely than their median does.
func runEndToEnd(ctx context.Context, w *workload, seed int64, seconds float64) *result {
	r := newResult(w)
	var sp []split
	setup := make([]float64, setupReps)
	for i := range setup {
		t0 := time.Now()
		s, err := w.setUp(seed)
		setup[i] = time.Since(t0).Seconds()
		if !r.check(err == nil, "set-up: %v", err) {
			return r
		}
		sp = s
	}
	r.metrics["setup_s"] = median(setup)

	var models []*fitted
	var saved [][]byte
	var fitS, allocMB, rowsPerS, p50, p99 []float64
	pr := newPredictRound(w)
	nf, nr := reps(w.fits, seconds), reps(w.rounds, seconds)
	for k := range nf {
		clfs, secs, mb := fitAll(r, w, sp)
		if clfs == nil {
			return r
		}
		fitS = append(fitS, secs)
		allocMB = append(allocMB, mb)
		if k == 0 {
			var acc float64
			if models, saved, acc = checkModels(ctx, r, w, sp, clfs); models == nil {
				return r
			}
			r.metrics["accuracy"] = acc
		} else {
			for i, clf := range clfs {
				var buf bytes.Buffer
				err := dfpc.SaveModel(&buf, clf)
				r.check(err == nil && bytes.Equal(buf.Bytes(), saved[i]), "%s: fit unit %d saved a different model than the first (err %v)",
					w.parts[i].dataset, k, err)
			}
		}
		for len(p50) < (k+1)*nr/nf {
			rps, a, b := pr.run(ctx, r, models)
			rowsPerS, p50, p99 = append(rowsPerS, rps), append(p50, a), append(p99, b)
		}
	}
	r.metrics["fit_s"] = slices.Min(fitS)
	r.metrics["fit_alloc_mb"] = median(allocMB)
	var size int
	for _, b := range saved {
		size += len(b)
	}
	r.metrics["model_bytes"] = float64(size)
	r.metrics["predict_rows_per_s"] = slices.Max(rowsPerS)
	r.metrics["predict_p50_us"] = slices.Min(p50)
	r.metrics["predict_p99_us"] = slices.Min(p99)
	return r
}

// predictRound holds the buffers of the end-to-end run's predict rounds.
type predictRound struct {
	w   *workload
	out []int
	lat []int64
}

func newPredictRound(w *workload) *predictRound {
	return &predictRound{w, make([]int, batchRows), make([]int64, blockReqs)}
}

// run sends w.bulk batches of 1024 rows to each part's held
// BatchPredictor, then one block of 1000 batch-1 requests spread over
// the parts, and checks every prediction against the reference. It
// returns the bulk throughput in rows/s and the block's p50 and p99 in
// µs. It collects the fit's garbage first, so that no GC cycle started
// by a fit runs during the round.
func (pr *predictRound) run(ctx context.Context, r *result, models []*fitted) (rowsPerS, p50, p99 float64) {
	runtime.GC()
	var ns int64
	rows, bad := 0, 0
	for _, f := range models {
		for range pr.w.bulk {
			t0 := time.Now()
			err := f.bp.PredictInto(ctx, f.d, f.bulk, pr.out)
			ns += int64(time.Since(t0))
			rows += len(f.bulk)
			if err != nil || !slices.Equal(pr.out, f.want) {
				bad++
			}
		}
	}
	r.tally(len(models)*pr.w.bulk, bad, "%d bulk batches failed or differ from the reference", bad)

	bad = 0
	for j := range pr.lat {
		f, row := request(models, j)
		t0 := time.Now()
		err := f.bp.PredictInto(ctx, f.d, row, pr.out[:1])
		pr.lat[j] = int64(time.Since(t0))
		if err != nil || pr.out[0] != f.ref[row[0]] {
			bad++
		}
	}
	r.tally(blockReqs, bad, "%d batch-1 requests failed or differ from batch-1024", bad)
	a, b := latency(pr.lat)
	return float64(rows) / (float64(ns) / 1e9), a / 1e3, b / 1e3
}

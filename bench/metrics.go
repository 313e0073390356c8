package main

// metric is one metric the benchmark prints, by the name and unit
// BENCHMARK.json lists it under. An exact metric is a count or a
// result that the same code on the same workload and seed must
// reproduce to the last digit; compare reports any difference in it as
// a mismatch.
type metric struct {
	name, unit string
	exact      bool
}

// endToEnd are the metrics a user of the classifier sees, measured
// through the public API with tracing off.
var endToEnd = []metric{
	{"setup_s", "s", false},                 // generate + sample + split, median of setupReps
	{"fit_s", "s", false},                   // one fit of every part, median over fit units
	{"fit_alloc_mb", "MB", false},           // bytes allocated by one fit unit, median over fit units
	{"predict_rows_per_s", "rows/s", false}, // bulk batches of 1024 through a held BatchPredictor, median over rounds
	{"predict_p50_us", "us", false},         // batch-1 request latency: median of a block, median over blocks
	{"predict_p99_us", "us", false},         // p99 of a 1000-request block, median over blocks
	{"model_bytes", "B", true},              // SaveModel size, summed over parts
	{"accuracy", "frac", true},              // held-out accuracy pooled over parts
}

// perLayer are the metrics of single layers, measured by the traced
// replay. Times and allocations are per fit unit (summed over parts,
// median over units) or per request (median over the block); counts
// are what the layer produced. The learner.* times are those of the
// workload's learner (SMO or C4.5), so that no time reads 0 on every
// run of a workload that does not use one of them.
var perLayer = []metric{
	{"learner.train_s", "s", false},
	{"learner.score_ns", "ns", false},
	{"learner.baseline_score_s", "s", false},
	{"svm.support_vectors", "count", true},
	{"svm.pairs", "count", true},
	{"svm.iterations", "count", true},
	{"c45.nodes", "count", true},
	{"featsel.select_s", "s", false},
	{"featsel.alloc_mb", "MB", false},
	{"featsel.selected", "count", true},
	{"featsel.selected_frac", "frac", true},
	{"mining.mine_s", "s", false},
	{"mining.alloc_mb", "MB", false},
	{"mining.patterns", "count", true},
	{"patmatch.match_ns", "ns", false},
	{"patmatch.fired_per_row", "count", true},
	{"patmatch.compile_s", "s", false},
	{"patmatch.nodes", "count", true},
	{"patmatch.featurize_s", "s", false},
	{"discretize.rowcode_ns", "ns", false},
	{"discretize.fit_s", "s", false},
	{"dataset.encode_s", "s", false},
	{"modelobs.baseline_s", "s", false},
	{"core.unattributed_frac", "frac", false},
	{"core.predict_unattributed_ns", "ns", false},
	{"core.predict_allocs_per_row", "allocs/row", true},
	{"bench.trace_overhead_frac", "frac", false},
}

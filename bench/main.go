// Command bench is the repository's benchmark. It measures the
// classifier end to end through the public API with tracing off, and
// layer by layer through a traced replay of the same pipeline, on four
// workloads modelled on the paper's Tables 1 and 3–5. See README.md.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh --workload chess-dense --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out runs/a-1.json --trace-out trace.json
//	bash bench/run.sh compare 'runs/a-*.json' 'runs/b-*.json'
//
// A run prints one line per metric ("workload metric value unit") and,
// last, one JSON object with the keys correct, attempted, failed and
// metrics. It exits 1 when any fit, prediction or check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"dfpc/internal/durable"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDoc is one run of one workload in a results document.
type runDoc struct {
	Workload  string           `json:"workload"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Metrics   map[string]value `json:"metrics"`
}

// resultsDoc is what -out writes.
type resultsDoc struct {
	Env  envStamp `json:"env"`
	Runs []runDoc `json:"runs"`
}

// summary is the last line a run prints.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report turns a result into its document: every metric of list, in
// its unit. A missing or non-finite metric makes the run incorrect.
func (r *result) report(list []metric, traced bool) runDoc {
	d := runDoc{Workload: r.workload, Traced: traced, Attempted: max(r.attempted, 1), Failed: r.failed,
		Metrics: map[string]value{}}
	d.Correct = r.failed == 0 && r.attempted > 0
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: metric %s was not measured\n", r.workload, m.name)
			d.Correct = false
			continue
		}
		d.Metrics[m.name] = value{v, m.unit}
	}
	d.FailFrac = float64(d.Failed) / float64(d.Attempted)
	return d
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: uci-svm, chess-dense, letter-ovo, waveform-c45 or all")
	seed := fs.Int64("seed", 1, "seed of the request streams: the held-out rows each bulk batch and latency block sends")
	seconds := fs.Float64("seconds", refSeconds, "scales each workload's repetition counts, which are set for a run of about 20 s")
	trace := fs.String("trace", "both", "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced replay; both")
	out := fs.String("out", "", "write the results document, with its environment stamp, to this file")
	traceOut := fs.String("trace-out", "", "write the traced replay's spans to this file as trace_event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}

	ctx := context.Background()
	tr := newTracer()
	doc := resultsDoc{}
	sum := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		for _, traced := range modes {
			var d runDoc
			list := endToEnd
			if traced {
				list = perLayer
				d = runTraced(ctx, w, *seed, *seconds, tr).report(list, true)
			} else {
				d = runEndToEnd(ctx, w, *seed, *seconds).report(list, false)
			}
			for _, m := range list {
				if v, ok := d.Metrics[m.name]; ok {
					fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
					key := m.name
					if len(ws) > 1 {
						key = w.name + "/" + m.name
					}
					sum.Metrics[key] = v
				}
			}
			fmt.Fprintf(stdout, "%s fail_frac %s frac\n", w.name, strconv.FormatFloat(d.FailFrac, 'g', -1, 64))
			sum.Correct = sum.Correct && d.Correct
			sum.Attempted += d.Attempted
			sum.Failed += d.Failed
			doc.Runs = append(doc.Runs, d)
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		doc.Env = stamp(*seed, *seconds, ws)
		err := durable.WriteAtomic(*out, nil, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: write results:", err)
			return 1
		}
	}
	if *traceOut != "" {
		if err := durable.WriteAtomic(*traceOut, nil, func(w io.Writer) error { return writeTraceEvents(w, tr.spans) }); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write trace:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the benchmark's definition.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sample is one metric value of one run of one workload.
type sample struct {
	workload, metric string
	seed             int64
	value            float64
}

// side is one side of a comparison: the metric values of its runs, and
// how many of the runs were incorrect and of the operations failed.
type side struct {
	samples                            []sample
	runs, incorrect, attempted, failed int
}

// loadSide reads every results document matching the glob pattern.
func loadSide(pattern string) (*side, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no results document matches %q", pattern)
	}
	s := &side{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc resultsDoc
		if err := json.Unmarshal(b, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range doc.Runs {
			s.runs++
			if !r.Correct {
				s.incorrect++
			}
			s.attempted += r.Attempted
			s.failed += r.Failed
			names := make([]string, 0, len(r.Metrics))
			for name := range r.Metrics {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				s.samples = append(s.samples, sample{r.Workload, name, doc.Env.Seed, r.Metrics[name].Value})
			}
		}
	}
	return s, nil
}

// failFrac is the share of the side's attempted operations that failed.
func (s *side) failFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bench compare [-spec BENCHMARK.json] 'A-glob' 'B-glob'")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadSide(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadSide(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return compare(spec, a, b, stdout)
}

// rel returns (b-a)/a, the change from a to b as a share of a.
func rel(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, b)))
	}
	return (b - a) / math.Abs(a)
}

// verdict judges B against A on one end-to-end metric: "unresolved"
// when either side's spread between quartiles exceeds the bound (unless
// every B run beats every A run), "regressed" when B's median is worse
// than A's by more than the bound, else "ok".
func verdict(m specMetric, a, b []float64) string {
	if m.Bound == nil {
		return "-"
	}
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	worse, beats := rel(am, bm), slices.Max(b) < slices.Min(a)
	if m.Better == "higher" {
		worse, beats = -worse, slices.Min(b) > slices.Max(a)
	}
	switch {
	case max(rel(am, am+a3-a1), rel(bm, bm+b3-b1)) > *m.Bound && !beats:
		return "unresolved"
	case worse > *m.Bound:
		return "regressed"
	}
	return "ok"
}

// compare prints each side's failed operations and incorrect runs,
// then, for every workload and metric, each side's median and
// quartiles, the change, the bound and a verdict. It returns 1 when a
// run of either side is incorrect, when B fails a larger share of its
// operations than A, or when a metric regressed, is missing on one
// side, or is exact and differs between runs of the same workload and
// seed.
func compare(spec *benchSpec, a, b *side, stdout io.Writer) int {
	status := 0
	for _, s := range []struct {
		name string
		*side
	}{{"A", a}, {"B", b}} {
		fmt.Fprintf(stdout, "%s: %d runs, %d incorrect; %d of %d operations failed\n", s.name, s.runs, s.incorrect, s.failed, s.attempted)
		if s.incorrect > 0 {
			status = 1
		}
	}
	if b.failFrac() > a.failFrac() {
		fmt.Fprintf(stdout, "B fails more operations than A: %.3g > %.3g\n", b.failFrac(), a.failFrac())
		status = 1
	}

	type key struct{ workload, metric string }
	defs := map[string]specMetric{}
	order := map[string]int{}
	for i, m := range append(slices.Clone(spec.EndToEnd), spec.PerLayer...) {
		defs[m.Name], order[m.Name] = m, i
	}
	exact := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		exact[m.name] = m.exact
	}
	va, vb := map[key][]float64{}, map[key][]float64{}
	bySeed := map[key]map[int64][]float64{}
	var keys []key
	for _, sd := range []struct {
		ss []sample
		v  map[key][]float64
	}{{a.samples, va}, {b.samples, vb}} {
		for _, s := range sd.ss {
			k := key{s.workload, s.metric}
			if _, ok := defs[s.metric]; !ok {
				continue
			}
			if va[k] == nil && vb[k] == nil {
				keys = append(keys, k)
				bySeed[k] = map[int64][]float64{}
			}
			sd.v[k] = append(sd.v[k], s.value)
			bySeed[k][s.seed] = append(bySeed[k][s.seed], s.value)
		}
	}
	slices.SortFunc(keys, func(x, y key) int {
		return cmp.Or(cmp.Compare(x.workload, y.workload), cmp.Compare(order[x.metric], order[y.metric]))
	})

	tw := tabwriter.NewWriter(stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tdelta\tbound\tverdict")
	for _, k := range keys {
		m := defs[k.metric]
		xa, xb := va[k], vb[k]
		bound := "-"
		if m.Bound != nil {
			bound = fmt.Sprintf("%.3g%%", 100**m.Bound)
		}
		if len(xa) == 0 || len(xb) == 0 {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t-\t%s\tmissing\n", k.workload, k.metric, m.Unit, quarts(xa), quarts(xb), bound)
			status = 1
			continue
		}
		v := verdict(m, xa, xb)
		if exact[k.metric] {
			for _, vs := range bySeed[k] {
				if slices.Min(vs) != slices.Max(vs) {
					v = "mismatch"
				}
			}
		}
		if v == "regressed" || v == "mismatch" {
			status = 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", k.workload, k.metric, m.Unit, quarts(xa), quarts(xb),
			100*rel(median(xa), median(xb)), bound, v)
	}
	tw.Flush()
	return status
}

// quarts formats a side's values as median [q1, q3] (n).
func quarts(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}

package main

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dfpc"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 15, End: 20, Parent: 1}, // counts against a, not root
		{Name: "b", Start: 30, End: 60, Parent: 0},       // overlaps a on [30, 40)
		{Name: "c", Start: 90, End: 120, Parent: 0},      // reaches past root's end
		{Name: "d", Start: 95, End: 99, Parent: 0},       // inside c
	}
	// root: children cover [10, 60) and [90, 100), 60 of its 100 ns.
	want := []int64{40, 25, 5, 30, 30, 4}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	_, self := layerTimes(spans, 1)
	if self["root"] != 0 || self["a"] != 25 {
		t.Fatalf("layerTimes from 1 = %v", self)
	}
}

func TestLatencyAt1000Samples(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	p50, p99 := latency(ns)
	if p50 != 500 || p99 != 990 {
		t.Fatalf("p50, p99 = %v, %v, want 500, 990", p50, p99)
	}
	beyond := 0
	for _, v := range ns {
		if float64(v) > p99 {
			beyond++
		}
	}
	if beyond != 10 {
		t.Fatalf("%d samples above p99, want 10", beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{100, 1, 81, 4, 64, 9, 49, 16, 36, 25}, [3]float64{7.75, 30.5, 68.25}},
		{[]float64{1, 4}, [3]float64{0.25, 2.5, 4.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.want[1])
		}
	}
}

func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs both modes on a shrunken workload (heart only, the
// minimum of fit units and rounds) and checks that every metric
// BENCHMARK.json names is emitted, in its unit, with no failure.
func TestSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	w := &workload{name: "smoke", parts: []part{{"heart", 0}}, learner: dfpc.SVM, minSup: 0.15, bulk: 1, floor: 0.6}
	ctx := context.Background()
	for _, c := range []struct {
		traced bool
		want   []specMetric
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		var d runDoc
		if c.traced {
			d = runTraced(ctx, w, 1, 0, newTracer()).report(perLayer, true)
		} else {
			d = runEndToEnd(ctx, w, 1, 0).report(endToEnd, false)
		}
		if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", c.traced, d.Correct, d.Failed, d.Attempted)
		}
		if len(d.Metrics) != len(c.want) {
			t.Errorf("traced=%v: %d metrics emitted, BENCHMARK.json lists %d", c.traced, len(d.Metrics), len(c.want))
		}
		for _, m := range c.want {
			if v, ok := d.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("traced=%v: metric %s = %+v (emitted %v), want unit %s", c.traced, m.Name, v, ok, m.Unit)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	tickRE = regexp.MustCompile("`([^`]+)`")
)

// TestBenchmarkSpec lints BENCHMARK.json against the program and the
// moves table of README.md.
func TestBenchmarkSpec(t *testing.T) {
	s := loadTestSpec(t)
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	var maxBound float64
	for i, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		e2e := i < len(s.EndToEnd)
		if !nameRE.MatchString(m.Name) || seen[m.Name] || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad metric %+v", m)
		}
		seen[m.Name] = true
		if e2e != (m.Bound != nil) || (e2e && (*m.Bound <= 0 || *m.Bound > 0.25)) {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if e2e {
			maxBound = max(maxBound, *m.Bound)
		}
	}
	if i := slices.IndexFunc(s.EndToEnd, func(m specMetric) bool { return m.Name == "setup_s" }); i < 0 ||
		s.EndToEnd[i].Unit != "s" || s.EndToEnd[i].Better != "lower" || *s.EndToEnd[i].Bound != maxBound {
		t.Errorf("setup_s must be listed in s, lower, with the largest bound")
	}
	for _, c := range []struct {
		spec []specMetric
		prog []metric
	}{{s.EndToEnd, endToEnd}, {s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program emits %d", len(c.spec), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), program %s (%s)", i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
	isWorkload := map[string]bool{}
	for i, w := range s.Workloads {
		isWorkload[w.Name] = true
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("bad workload %+v", w)
		}
		if i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, program differs", i, w.Name)
		}
	}
	if len(s.Workloads) != len(workloads) || len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(s.Workloads), len(workloads))
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := movesTable(string(readme))
	if len(rows) == 0 {
		t.Fatal("README.md has no moves table")
	}
	isLayer := map[string]bool{}
	for _, m := range s.PerLayer {
		isLayer[m.Name] = true
	}
	for _, row := range rows {
		for _, name := range tickRE.FindAllStringSubmatch(row[0], -1) {
			if !isLayer[name[1]] {
				t.Errorf("moves table: %q is not a per-layer metric", name[1])
			}
		}
		for _, name := range tickRE.FindAllStringSubmatch(row[1], -1) {
			if !slices.ContainsFunc(s.EndToEnd, func(m specMetric) bool { ok, _ := path.Match(name[1], m.Name); return ok }) {
				t.Errorf("moves table: %q names no end-to-end metric", name[1])
			}
		}
		for _, col := range row[2:] {
			for _, name := range tickRE.FindAllStringSubmatch(col, -1) {
				if !isWorkload[name[1]] {
					t.Errorf("moves table: %q is not a workload", name[1])
				}
			}
		}
	}
}

// movesTable returns the body rows of README.md's moves table, the
// table whose header starts "| layer metrics | should move |".
func movesTable(readme string) [][]string {
	var rows [][]string
	in := false
	for _, line := range strings.Split(readme, "\n") {
		switch {
		case strings.HasPrefix(line, "| layer metrics | should move |"):
			in = true
		case in && strings.HasPrefix(line, "|---"):
		case in && strings.HasPrefix(line, "|"):
			cells := strings.Split(strings.Trim(line, "|"), "|")
			if len(cells) == 4 {
				rows = append(rows, cells)
			}
		default:
			in = false
		}
	}
	return rows
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := specMetric{Name: "fit_s", Unit: "s", Better: "lower", Bound: &bound}
	higher := specMetric{Name: "predict_rows_per_s", Unit: "rows/s", Better: "higher", Bound: &bound}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	for _, c := range []struct {
		m    specMetric
		b    []float64
		want string
	}{
		{lower, []float64{1.05, 1.06, 1.04, 1.05, 1.07}, "ok"},
		{lower, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, "regressed"},
		{lower, []float64{0.70, 1.40, 1.00, 0.60, 1.30}, "unresolved"},
		{higher, []float64{0.80, 0.81, 0.79, 0.82, 0.78}, "regressed"},
		{higher, []float64{1.20, 1.21, 1.19, 1.22, 1.18}, "ok"},
	} {
		if got := verdict(c.m, base, c.b); got != c.want {
			t.Errorf("verdict(%s, %v) = %s, want %s", c.m.Name, c.b, got, c.want)
		}
	}

	tiny := 1e-9
	spec := &benchSpec{
		EndToEnd: []specMetric{lower, {Name: "accuracy", Unit: "frac", Better: "higher", Bound: &tiny}},
		PerLayer: []specMetric{{Name: "mining.patterns", Unit: "count", Better: "lower"}},
	}
	newSide := func() *side {
		return &side{runs: 2, attempted: 100, samples: []sample{
			{"w", "fit_s", 1, 1.0}, {"w", "fit_s", 2, 1.0},
			{"w", "accuracy", 1, 0.9}, {"w", "accuracy", 2, 0.9},
			{"w", "mining.patterns", 1, 10}, {"w", "mining.patterns", 2, 20},
		}}
	}
	for _, c := range []struct {
		name   string
		change func(b *side)
		want   int
		output string
	}{
		{"identical runs", func(*side) {}, 0, "ok"},
		{"count differs at one seed", func(b *side) { b.samples[5].value = 21 }, 1, "mismatch"},
		{"accuracy differs at one seed", func(b *side) { b.samples[3].value = 0.95 }, 1, "mismatch"},
		{"a run of B is incorrect", func(b *side) { b.incorrect = 1 }, 1, "1 incorrect"},
		{"B fails more operations", func(b *side) { b.failed = 1 }, 1, "B fails more operations"},
	} {
		b := newSide()
		c.change(b)
		var out bytes.Buffer
		if st := compare(spec, newSide(), b, &out); st != c.want || !strings.Contains(out.String(), c.output) {
			t.Errorf("%s: status %d, want %d with %q\n%s", c.name, st, c.want, c.output, out.String())
		}
	}
}

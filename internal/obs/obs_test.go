package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	o := New()
	fit := o.Start("fit").Attr("rows", 100)
	mine := o.Start("mine")
	o.Start("class-0").End()
	o.Start("class-1").End()
	mine.End()
	learn := o.Start("learn").Attr("learner", "svm")
	learn.End()
	fit.End()
	o.Start("predict").End()

	r := o.Report("run")
	if len(r.Spans) != 2 {
		t.Fatalf("top-level spans = %d, want 2", len(r.Spans))
	}
	ft := r.Spans[0]
	if ft.Name != "fit" || len(ft.Children) != 2 {
		t.Fatalf("fit span = %q with %d children, want fit/2", ft.Name, len(ft.Children))
	}
	mn := ft.Children[0]
	if mn.Name != "mine" || len(mn.Children) != 2 {
		t.Fatalf("mine span = %q with %d children, want mine/2", mn.Name, len(mn.Children))
	}
	if mn.Children[0].Name != "class-0" || mn.Children[1].Name != "class-1" {
		t.Fatalf("class spans = %q,%q", mn.Children[0].Name, mn.Children[1].Name)
	}
	if r.Spans[1].Name != "predict" || len(r.Spans[1].Children) != 0 {
		t.Fatalf("second top-level span = %+v, want bare predict", r.Spans[1])
	}
	if ft.Wall() <= 0 {
		t.Fatalf("fit wall = %v, want > 0", ft.Wall())
	}
	if ft.Wall() < mn.Wall() {
		t.Fatalf("parent wall %v < child wall %v", ft.Wall(), mn.Wall())
	}
	if len(ft.Attrs) != 1 || ft.Attrs[0].Key != "rows" || ft.Attrs[0].Value != "100" {
		t.Fatalf("fit attrs = %+v", ft.Attrs)
	}
}

func TestSpanEndPopsUnclosedChildren(t *testing.T) {
	o := New()
	outer := o.Start("outer")
	//vet:ignore spanend this test deliberately leaks a span to exercise the pop-unclosed-children path
	o.Start("leaked") // never ended
	outer.End()
	// The next span must be top-level again, not a child of "leaked".
	o.Start("next").End()
	r := o.Report("")
	if len(r.Spans) != 2 || r.Spans[1].Name != "next" {
		t.Fatalf("spans = %+v, want [outer next] at top level", r.Spans)
	}
}

func TestCounterRegistryConcurrency(t *testing.T) {
	o := New()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shared := o.Counter("shared")
			own := o.Counter("worker")
			for i := 0; i < perWorker; i++ {
				shared.Inc()
				own.Add(2)
				o.Gauge("last").Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := o.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := o.Counter("worker").Value(); got != 2*workers*perWorker {
		t.Fatalf("worker counter = %d, want %d", got, 2*workers*perWorker)
	}
	if g := o.Gauge("last").Value(); g < 0 || g >= workers {
		t.Fatalf("gauge = %v, want in [0,%d)", g, workers)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	o := New()
	sp := o.Start("fit").Attr("dataset", "austral")
	o.Start("mine").Attr("min_sup", 0.15).End()
	sp.End()
	o.Counter("fptree.nodes").Add(1234)
	o.Gauge("mmrfs.coverage_residual").Set(3.5)

	r := o.Report("roundtrip")
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back := new(RunReport)
	if err := json.NewDecoder(&buf).Decode(back); err != nil {
		t.Fatal(err)
	}
	// time.Time survives RFC3339 only to nanosecond precision with the
	// original location dropped; compare through a canonical re-marshal.
	a, _ := json.Marshal(r)
	b, _ := json.Marshal(back)
	if !bytes.Equal(a, b) {
		t.Fatalf("report did not round-trip:\n%s\nvs\n%s", a, b)
	}
	if back.Counters["fptree.nodes"] != 1234 {
		t.Fatalf("counter lost: %+v", back.Counters)
	}
	if back.Gauges["mmrfs.coverage_residual"] != 3.5 {
		t.Fatalf("gauge lost: %+v", back.Gauges)
	}
	if len(back.Spans) != 1 || len(back.Spans[0].Children) != 1 {
		t.Fatalf("span tree lost: %+v", back.Spans)
	}
	if !reflect.DeepEqual(back.Spans[0].Attrs, []Attr{{Key: "dataset", Value: "austral"}}) {
		t.Fatalf("attrs lost: %+v", back.Spans[0].Attrs)
	}
}

func TestNilObserverFastPath(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer claims enabled")
	}
	sp := o.Start("anything")
	if sp != nil {
		t.Fatal("nil observer returned a live span")
	}
	sp.Attr("k", "v").End() // must not panic
	sp.End()                // double End must not panic
	if sp.Wall() != 0 {
		t.Fatal("nil span has wall time")
	}
	c := o.Counter("c")
	if c != nil {
		t.Fatal("nil observer returned a live counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	g := o.Gauge("g")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge holds a value")
	}
	if r := o.Report("x"); r != nil {
		t.Fatal("nil observer produced a report")
	}
	o.Reset() // must not panic

	// The nil path must not allocate: it is the always-on hot path.
	allocs := testing.AllocsPerRun(100, func() {
		s := o.Start("fit")
		s.Attr("k", 1)
		o.Counter("n").Add(1)
		o.Gauge("g").Set(2)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("nil observer path allocates %v per run, want 0", allocs)
	}
}

func TestWriteTreeAndCSV(t *testing.T) {
	o := New()
	fit := o.Start("fit")
	o.Start("mine").Attr("classes", 2).End()
	fit.End()
	o.Counter("mine.patterns").Add(42)
	o.Gauge("core.min_sup").Set(0.15)
	r := o.Report("tree")

	var tree bytes.Buffer
	r.WriteTree(&tree)
	out := tree.String()
	for _, want := range []string{"fit", "  mine", "classes=2", "mine.patterns", "42", "core.min_sup", "0.15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}

func TestReset(t *testing.T) {
	o := New()
	o.Start("a").End()
	o.Counter("c").Inc()
	o.Reset()
	r := o.Report("")
	if len(r.Spans) != 0 || len(r.Counters) != 0 {
		t.Fatalf("reset left state: %+v", r)
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	var pf ProfileFlags
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	pf.Register(fs)
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	tr := filepath.Join(dir, "trace.out")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem, "-trace", tr}); err != nil {
		t.Fatal(err)
	}
	stop, err := pf.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to flush.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i % 7
	}
	_ = x
	time.Sleep(10 * time.Millisecond)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}

	// No flags set: Start and stop are no-ops.
	var off ProfileFlags
	stop, err = off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

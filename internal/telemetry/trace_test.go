package telemetry

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dfpc/internal/core"
	"dfpc/internal/datagen"
	"dfpc/internal/obs"
	"dfpc/internal/parallel"
)

// tracedReport builds a RunReport with at least one span so the trace
// export has content.
func tracedReport(name string) *obs.RunReport {
	o := obs.New()
	sp := o.Start("fit")
	o.Start("mine").End()
	sp.End()
	return o.Report(name)
}

func decodeTrace(t *testing.T, body string) obs.TraceDoc {
	t.Helper()
	var doc obs.TraceDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("trace endpoint returned invalid JSON: %v\n%s", err, body)
	}
	return doc
}

func TestTraceEndpoint(t *testing.T) {
	rb := NewRunBuffer(4)
	rb.Add(tracedReport("run-0"))
	rb.Add(tracedReport("run-1"))
	base, _ := startTestServer(t, ServerConfig{Obs: obs.New(), Runs: rb})

	// Bare /trace/ and /trace/latest both serve the newest run.
	for _, path := range []string{"/trace/", "/trace/latest"} {
		code, body := httpGet(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d\n%s", path, code, body)
		}
		doc := decodeTrace(t, body)
		if len(doc.TraceEvents) == 0 {
			t.Fatalf("GET %s: empty trace", path)
		}
		if doc.TraceEvents[0].Args["name"] != "run-1" {
			t.Fatalf("GET %s served %q, want latest run-1", path, doc.TraceEvents[0].Args["name"])
		}
	}

	// An explicit index selects that run.
	code, body := httpGet(t, base+"/trace/0")
	if code != http.StatusOK {
		t.Fatalf("GET /trace/0 = %d", code)
	}
	if doc := decodeTrace(t, body); doc.TraceEvents[0].Args["name"] != "run-0" {
		t.Fatalf("GET /trace/0 served %q, want run-0", doc.TraceEvents[0].Args["name"])
	}

	// Out-of-range and non-numeric selectors are 404s.
	for _, path := range []string{"/trace/7", "/trace/-1", "/trace/abc"} {
		if code, _ := httpGet(t, base+path); code != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, code)
		}
	}
}

func TestTraceEndpointNoRuns(t *testing.T) {
	base, _ := startTestServer(t, ServerConfig{Obs: obs.New(), Runs: NewRunBuffer(4)})
	if code, _ := httpGet(t, base+"/trace/"); code != http.StatusNotFound {
		t.Fatalf("empty buffer trace = %d, want 404", code)
	}
	// No buffer configured at all behaves the same.
	base2, _ := startTestServer(t, ServerConfig{Obs: obs.New()})
	if code, _ := httpGet(t, base2+"/trace/"); code != http.StatusNotFound {
		t.Fatalf("nil buffer trace = %d, want 404", code)
	}
}

// TestDebugServerUnderLiveFit is the under-load proof: a parallel
// pattern-pipeline Fit streams spans, counters, and histograms into the
// observer while client goroutines hammer /metrics, /runs, and /trace.
// Run with -race this demonstrates a scrape never tears live state.
func TestDebugServerUnderLiveFit(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	assertNoGoroutineLeak(t)
	d, err := datagen.ByName("austral", 1)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	rb := NewRunBuffer(4)
	base, _ := startTestServer(t, ServerConfig{Obs: o, Runs: rb})

	rows := make([]int, d.NumRows())
	for i := range rows {
		rows[i] = i
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for iter := 0; iter < 3; iter++ {
			p := core.NewFamily(core.PatFS, core.Config{
				Learner:    core.SVMLinear,
				MinSupport: 0.3,
				Workers:    parallel.Workers(4),
			})
			p.SetObserver(o)
			if err := p.Fit(d, rows); err != nil {
				t.Error(err)
				return
			}
			rb.Add(o.Report("live-fit"))
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, path := range []string{"/metrics", "/runs", "/trace/latest"} {
					resp, err := http.Get(base + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					// /trace is 404 until the first report lands; anything
					// else must serve.
					if resp.StatusCode != http.StatusOK &&
						!(strings.HasPrefix(path, "/trace") && resp.StatusCode == http.StatusNotFound) {
						t.Errorf("GET %s = %d", path, resp.StatusCode)
					}
					resp.Body.Close()
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	<-done
	wg.Wait()

	// After the dust settles the trace endpoint serves valid JSON with
	// the introspection counters present in /metrics.
	code, body := httpGet(t, base+"/trace/latest")
	if code != http.StatusOK {
		t.Fatalf("final trace = %d", code)
	}
	decodeTrace(t, body)
	_, metrics := httpGet(t, base+"/metrics")
	for _, want := range []string{"mine_depth", "mmrfs_iterations", "measures_ig_bound_checks"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("final /metrics missing %s", want)
		}
	}
}

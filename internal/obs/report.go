package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// SpanReport is the serializable form of one span. StartNS is the
// span's start offset relative to the run's StartedAt — what the trace
// exporter needs to lay spans on a timeline (forked observers copy the
// root's start time, so offsets are comparable across workers).
type SpanReport struct {
	Name       string        `json:"name"`
	StartNS    int64         `json:"start_ns,omitempty"`
	WallNS     int64         `json:"wall_ns"`
	AllocBytes uint64        `json:"alloc_bytes,omitempty"`
	Attrs      []Attr        `json:"attrs,omitempty"`
	Children   []*SpanReport `json:"children,omitempty"`
}

// Wall returns the span's wall time as a duration.
func (s *SpanReport) Wall() time.Duration { return time.Duration(s.WallNS) }

// RunReport is the machine-readable summary of one observed run: the
// span tree plus the final counter and gauge values. It round-trips
// losslessly through encoding/json and feeds the BENCH_*.json
// trajectory files.
type RunReport struct {
	Name       string                       `json:"name,omitempty"`
	StartedAt  time.Time                    `json:"started_at"`
	WallNS     int64                        `json:"wall_ns"`
	Spans      []*SpanReport                `json:"spans,omitempty"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Audits carries named decision-audit tables (e.g. the MMRFS
	// selection trail) that callers attach after Report and before
	// serialization; the observer itself never populates it. Values
	// must be JSON-serializable.
	Audits map[string]any `json:"audits,omitempty"`
}

// Report snapshots the observer into a RunReport named name. Open spans
// are included with their current (zero) measurements; call it after
// the instrumented work has finished. A nil observer reports nil.
func (o *Observer) Report(name string) *RunReport {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	spans := append([]*Span(nil), o.spans...)
	started := o.started
	o.mu.Unlock()
	r := &RunReport{
		Name:       name,
		StartedAt:  started,
		WallNS:     int64(time.Since(started)),
		Counters:   o.counterValues(),
		Gauges:     o.gaugeValues(),
		Histograms: o.histogramValues(),
	}
	for _, s := range spans {
		r.Spans = append(r.Spans, s.report(started))
	}
	return r
}

func (s *Span) report(started time.Time) *SpanReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := &SpanReport{
		Name:       s.name,
		StartNS:    s.start.Sub(started).Nanoseconds(),
		WallNS:     int64(s.wall),
		AllocBytes: s.alloc,
		Attrs:      append([]Attr(nil), s.attrs...),
	}
	for _, c := range s.children {
		sr.Children = append(sr.Children, c.report(started))
	}
	return sr
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTree renders the report as a human-readable stage tree followed
// by the counters and gauges:
//
//	fit                              412ms   18.2MB  rows=242
//	  mine                           210ms   12.0MB  min_sup=0.15
//	  ...
func (r *RunReport) WriteTree(w io.Writer) {
	if r.Name != "" {
		fmt.Fprintf(w, "%s (total %v)\n", r.Name, time.Duration(r.WallNS).Round(time.Millisecond))
	}
	for _, s := range r.Spans {
		writeSpanTree(w, s, 0)
	}
	if len(r.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(r.Counters) {
			fmt.Fprintf(w, "  %-38s %d\n", k, r.Counters[k])
		}
	}
	if len(r.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(r.Gauges) {
			fmt.Fprintf(w, "  %-38s %g\n", k, r.Gauges[k])
		}
	}
	if len(r.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, k := range sortedKeys(r.Histograms) {
			h := r.Histograms[k]
			fmt.Fprintf(w, "  %-38s n=%d p50=%s p90=%s p99=%s\n",
				k, h.Count, fmtHistSample(k, h.P50), fmtHistSample(k, h.P90), fmtHistSample(k, h.P99))
		}
	}
}

// fmtHistSample renders one histogram quantile, using duration or byte
// units when the histogram's name declares them.
func fmtHistSample(name string, v int64) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return time.Duration(v).Round(time.Microsecond).String()
	case strings.HasSuffix(name, "_bytes"):
		if v < 0 {
			v = 0
		}
		return fmtBytes(uint64(v))
	default:
		return strconv.FormatInt(v, 10)
	}
}

func writeSpanTree(w io.Writer, s *SpanReport, depth int) {
	indent := ""
	for i := 0; i < depth; i++ {
		indent += "  "
	}
	line := fmt.Sprintf("%s%-*s %9v %9s", indent, 30-len(indent), s.Name,
		s.Wall().Round(10*time.Microsecond), fmtBytes(s.AllocBytes))
	for _, a := range s.Attrs {
		line += fmt.Sprintf("  %s=%s", a.Key, a.Value)
	}
	fmt.Fprintln(w, line)
	for _, c := range s.Children {
		writeSpanTree(w, c, depth+1)
	}
}

// fmtBytes renders an allocation delta compactly.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

package main

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"time"
)

// span is one timed interval of the traced replay: a call into one
// layer, the fit unit or request it belongs to (run), and the span that
// caused it. Spans stay in memory until the benchmark exits.
type span struct {
	Name   string
	Start  int64 // ns since the tracer's epoch
	End    int64
	Parent int // index of the enclosing span, -1 for a root
	Run    int
}

// tracer records spans from the benchmark's own code, around each
// call into a layer. A nil *tracer records nothing, so the same replay
// code runs traced and untraced.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// newRun gives the spans that follow a new run id: one per fit unit and
// one per request.
func (t *tracer) newRun() { t.run++ }

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: t.open, Run: t.run})
	t.open = i
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.open = t.spans[i].Parent
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its children cover. Children may nest or overlap;
// an instant covered by several children is subtracted once, and a
// child reaching outside its parent counts only inside it.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if lo < hi {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTimes sums duration and self time by span name over spans[from:].
func layerTimes(spans []span, from int) (dur, self map[string]int64) {
	dur, self = map[string]int64{}, map[string]int64{}
	st := selfTimes(spans)
	for i := from; i < len(spans); i++ {
		dur[spans[i].Name] += spans[i].End - spans[i].Start
		self[spans[i].Name] += st[i]
	}
	return dur, self
}

// writeTraceEvents writes the spans as Chrome trace_event JSON (load it
// in Perfetto or chrome://tracing): one complete event per span, times
// in µs, all on one lane since the replay runs on one goroutine.
func writeTraceEvents(w io.Writer, spans []span) error {
	type args struct {
		ID     int `json:"id"`
		Parent int `json:"parent"`
		Run    int `json:"run"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args{i, s.Parent, s.Run}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

// Package obs is the pipeline's observability substrate: nestable
// stage spans (wall time + allocation deltas + attributes), a cheap
// counter/gauge registry, report exporters (tree, JSON, CSV), and
// pprof/trace profiling hooks shared by the CLIs.
//
// The package is built around a nil-recorder fast path: every method is
// safe — and nearly free — on a nil *Observer, nil *Span, nil *Counter,
// and nil *Gauge. Instrumented code therefore threads a possibly-nil
// observer through unconditionally; when observability is off the cost
// is a nil check per call site and zero allocation.
//
//	var o *obs.Observer            // disabled
//	sp := o.Start("mine")          // no-op, returns nil
//	o.Counter("fptree.nodes")      // no-op, returns nil
//	sp.End()                       // no-op
//
// Hot loops hold the *Counter (not the observer) and call Add, which is
// a single atomic increment when enabled and a nil check when not.
package obs

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Observer records one run: a tree of spans plus a counter/gauge
// registry. Construct with New; a nil Observer is a valid disabled
// recorder. An Observer may be reused across runs — Reset clears it.
//
// An Observer's span stack is single-goroutine state: Start nests new
// spans under the innermost span open on this observer's stack, so two
// goroutines sharing one observer would interleave their stages into a
// meaningless tree. Concurrent stages therefore record through Fork —
// one forked observer per worker — which shares the (atomic,
// concurrency-safe) counter/gauge/histogram registry while anchoring
// the worker's spans under the span that was open at fork time.
type Observer struct {
	mu      sync.Mutex
	started time.Time
	spans   []*Span // top-level (root) spans, in start order
	stack   []*Span // currently open spans, innermost last

	// anchor, when non-nil, marks this observer as a fork: spans started
	// with an empty stack attach under anchor instead of the top level.
	anchor *Span
	// root points at the observer owning the top-level span list (nil on
	// the root itself); forks of forks chain back to one root.
	root *Observer

	// log, when non-nil, receives the observer's own diagnostics
	// (span-leak warnings). Set with SetLogger; forks inherit it.
	log *slog.Logger

	reg *registry
}

// registry is the counter/gauge/histogram store shared between an
// observer and all of its forks. Every recorder in it is individually
// atomic, so concurrent workers increment exact shared totals.
type registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

func newRegistry() *registry {
	return &registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// New returns an enabled Observer.
func New() *Observer {
	return &Observer{started: time.Now(), reg: newRegistry()}
}

// Fork returns an observer for one concurrent worker: it records into
// the same counter/gauge/histogram registry as o, but keeps its own
// span stack, anchored at the span innermost-open on o at fork time —
// a worker's spans become children of the stage that forked it, and
// the report tree stays coherent however many workers ran. With no
// span open, the fork's top-level spans land on o's (or o's root's)
// top-level list. A nil observer forks to nil, keeping the
// instrumentation-off path free.
func (o *Observer) Fork() *Observer {
	if o == nil {
		return nil
	}
	f := &Observer{started: o.started, reg: o.reg, root: o.root, log: o.logger()}
	if f.root == nil {
		f.root = o
	}
	o.mu.Lock()
	if n := len(o.stack); n > 0 {
		f.anchor = o.stack[n-1]
	} else {
		f.anchor = o.anchor
	}
	o.mu.Unlock()
	return f
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// SetLogger attaches a logger for the observer's own diagnostics —
// today that is the span-leak warning End emits when it pops unclosed
// children. Forks made after the call inherit the logger; a nil logger
// silences the diagnostics again (the obs.span_leak counter still
// counts them).
func (o *Observer) SetLogger(l *slog.Logger) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.log = l
	o.mu.Unlock()
}

// logger returns the attached diagnostics logger (nil when unset).
func (o *Observer) logger() *slog.Logger {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.log
}

// Reset discards all recorded spans, counters, and gauges. Existing
// forks keep recording into the (now cleared) shared registry, but
// their span anchors still point at discarded spans — fork again after
// a reset.
func (o *Observer) Reset() {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.started = time.Now()
	o.spans = nil
	o.stack = nil
	o.mu.Unlock()
	o.reg.mu.Lock()
	o.reg.counters = map[string]*Counter{}
	o.reg.gauges = map[string]*Gauge{}
	o.reg.histograms = map[string]*Histogram{}
	o.reg.mu.Unlock()
}

// GobEncode makes types embedding a *Observer field (configs that get
// snapshotted with encoding/gob) encodable. Observers themselves carry
// no persistent state worth saving, so the encoding is empty.
func (o *Observer) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores nothing: a decoded observer is a fresh disabled
// recorder placeholder.
func (o *Observer) GobDecode([]byte) error { return nil }

// Attr is one key/value annotation on a span. Values are rendered to
// strings at Set time so reports are self-contained.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a run. Spans nest: a span started while
// another is open becomes its child. End closes the span, capturing
// wall time and the runtime.MemStats total-allocation delta.
type Span struct {
	o          *Observer
	name       string
	start      time.Time
	allocStart uint64

	mu       sync.Mutex
	wall     time.Duration
	alloc    uint64
	attrs    []Attr
	children []*Span
	done     bool
}

// Start opens a span named name under the innermost open span (or, on
// a fork with an empty stack, under the fork's anchor span; or at the
// top level). It returns nil — a valid no-op span — on a nil observer.
func (o *Observer) Start(name string) *Span {
	if o == nil {
		return nil
	}
	//vet:ignore nondeterm span timestamps are observability, never part of byte-compared artifacts
	s := &Span{o: o, name: name, start: time.Now(), allocStart: totalAlloc()}
	o.mu.Lock()
	switch {
	case len(o.stack) > 0:
		parent := o.stack[len(o.stack)-1]
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	case o.anchor != nil:
		a := o.anchor
		a.mu.Lock()
		a.children = append(a.children, s)
		a.mu.Unlock()
	case o.root != nil:
		// A fork made while no span was open: top-level spans belong to
		// the root observer's report. Lock order is fork → root; the
		// root never locks a fork, so this cannot deadlock.
		r := o.root
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	default:
		o.spans = append(o.spans, s)
	}
	o.stack = append(o.stack, s)
	o.mu.Unlock()
	return s
}

// Attr annotates the span with a key/value pair and returns the span
// for chaining. The value is rendered with fmt.Sprint immediately.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: fmt.Sprint(value)})
	s.mu.Unlock()
	return s
}

// End closes the span, recording wall time and allocation delta, and
// pops it (plus any unclosed children) off the observer's open stack.
// The first close also feeds the stage's latency and allocation
// histograms (stage.<name>.duration_ns / stage.<name>.alloc_bytes), so
// /metrics scrapes see live per-stage distributions while a run is
// still in flight. Ending a span twice keeps the first measurement.
//
// Popping an unclosed child is an instrumentation bug in the caller (a
// Start without a dominating End): each such span increments the
// obs.span_leak counter and, when the observer has a logger, is named
// in a WARN record — leaks stay visible instead of silently vanishing
// from the stack.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	closed := false
	if !s.done {
		s.done = true
		closed = true
		//vet:ignore nondeterm span timestamps are observability, never part of byte-compared artifacts
		s.wall = time.Since(s.start)
		if a := totalAlloc(); a > s.allocStart {
			s.alloc = a - s.allocStart
		}
	}
	wall, alloc := s.wall, s.alloc
	s.mu.Unlock()
	if closed {
		s.o.Histogram("stage." + s.name + ".duration_ns").Observe(int64(wall))
		s.o.Histogram("stage." + s.name + ".alloc_bytes").Observe(int64(alloc))
	}
	o := s.o
	var leaked []string
	o.mu.Lock()
	log := o.log
	for i := len(o.stack) - 1; i >= 0; i-- {
		if o.stack[i] == s {
			for _, c := range o.stack[i+1:] {
				leaked = append(leaked, c.name)
			}
			o.stack = o.stack[:i]
			break
		}
	}
	o.mu.Unlock()
	if len(leaked) > 0 {
		o.Counter("obs.span_leak").Add(int64(len(leaked)))
		if log != nil {
			log.Warn("obs: span leak: parent ended before children",
				slog.String("parent", s.name),
				slog.Any("leaked_spans", leaked))
		}
	}
}

// Wall returns the span's recorded wall time (zero before End).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wall
}

// totalAlloc reads the cumulative heap allocation counter. ReadMemStats
// is not free, but spans mark stage boundaries, never hot-loop
// iterations.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil Counter is a no-op. Add is one atomic on the hot path.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric (coverage residual, chosen C,
// resolved min_sup, …). A nil Gauge is a no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Counter returns the named counter, creating it on first use. It
// returns nil — a valid no-op counter — on a nil observer. Callers on
// hot paths should look the counter up once and retain it. Forks
// resolve names in the shared registry, so the same name is the same
// counter in every worker.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	o.reg.mu.RLock()
	c := o.reg.counters[name]
	o.reg.mu.RUnlock()
	if c != nil {
		return c
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	if c = o.reg.counters[name]; c == nil {
		c = &Counter{}
		o.reg.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// observer.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	o.reg.mu.RLock()
	g := o.reg.gauges[name]
	o.reg.mu.RUnlock()
	if g != nil {
		return g
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	if g = o.reg.gauges[name]; g == nil {
		g = &Gauge{}
		o.reg.gauges[name] = g
	}
	return g
}

// counterValues snapshots the counter registry.
func (o *Observer) counterValues() map[string]int64 {
	o.reg.mu.RLock()
	defer o.reg.mu.RUnlock()
	if len(o.reg.counters) == 0 {
		return nil
	}
	out := make(map[string]int64, len(o.reg.counters))
	for name, c := range o.reg.counters {
		out[name] = c.Value()
	}
	return out
}

// gaugeValues snapshots the gauge registry.
func (o *Observer) gaugeValues() map[string]float64 {
	o.reg.mu.RLock()
	defer o.reg.mu.RUnlock()
	if len(o.reg.gauges) == 0 {
		return nil
	}
	out := make(map[string]float64, len(o.reg.gauges))
	for name, g := range o.reg.gauges {
		out[name] = g.Value()
	}
	return out
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

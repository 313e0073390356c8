package modelobs

import "dfpc/internal/obs"

// Sketch is a deterministic sliding window over the prediction
// stream: a fixed-width ring of windowed counters. A window holds
// exactly windowSize predictions; when it fills, the ring advances
// and the oldest window is discarded. The advance is driven purely
// by prediction count — no wall clocks — so replaying the same
// stream reproduces the same state bit for bit.
//
// Every slice is allocated once at construction; Observe and
// MarkFire never allocate (the Predict hot path runs them per row).
// Aggregated over the whole ring the counters are order-insensitive,
// so for streams no longer than Capacity the aggregate is invariant
// to how a parallel harness interleaved the rows.
type Sketch struct {
	windowSize  int
	numClasses  int
	numPatterns int
	windows     []window
	cur         int
	total       int64 // lifetime observations
	advanced    int64 // completed-window rotations
}

// window is one slot of the ring.
type window struct {
	n       int64
	classes []int64
	fire    []int64
	conf    []int64 // log2 buckets of confidence micro-units
	density []int64 // log2 buckets of feature-vector length
	lowConf int64   // observations at or below the baseline cut
}

func (w *window) reset() {
	w.n, w.lowConf = 0, 0
	clearInt64(w.classes)
	clearInt64(w.fire)
	clearInt64(w.conf)
	clearInt64(w.density)
}

func clearInt64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

// NewSketch builds a ring of windows predictions each covering
// windowSize observations over numClasses classes and numPatterns
// pattern features. windowSize and windows fall back to the package
// defaults (256 × 16) when non-positive.
func NewSketch(windowSize, windows, numClasses, numPatterns int) *Sketch {
	if windowSize <= 0 {
		windowSize = DefaultWindowSize
	}
	if windows <= 0 {
		windows = DefaultWindows
	}
	s := &Sketch{
		windowSize:  windowSize,
		numClasses:  numClasses,
		numPatterns: numPatterns,
		windows:     make([]window, windows),
	}
	// One backing array sliced across the ring: construction stays a
	// fixed two allocations however wide the ring is, and the windows'
	// counters end up contiguous for the aggregate scan.
	stride := numClasses + numPatterns + 2*obs.NumHistBuckets
	backing := make([]int64, windows*stride)
	for i := range s.windows {
		chunk := backing[i*stride : (i+1)*stride]
		s.windows[i] = window{
			classes: chunk[:numClasses:numClasses],
			fire:    chunk[numClasses : numClasses+numPatterns : numClasses+numPatterns],
			conf:    chunk[numClasses+numPatterns : stride-obs.NumHistBuckets : stride-obs.NumHistBuckets],
			density: chunk[stride-obs.NumHistBuckets : stride : stride],
		}
	}
	return s
}

// MarkFire records that pattern feature j fired on the observation
// about to be recorded with Observe. Out-of-range indices are
// ignored. Nil-safe, allocation-free.
func (s *Sketch) MarkFire(j int) {
	if s == nil || j < 0 || j >= s.numPatterns {
		return
	}
	s.windows[s.cur].fire[j]++
}

// Observe records one prediction into the current window and reports
// whether the window filled and the ring advanced (the caller
// re-scores drift on that edge). Nil-safe, allocation-free.
func (s *Sketch) Observe(class, density int, confMicro int64, lowConf bool) bool {
	if s == nil || class < 0 || class >= s.numClasses {
		return false
	}
	w := &s.windows[s.cur]
	w.classes[class]++
	w.density[obs.BucketIndex(int64(density))]++
	w.conf[obs.BucketIndex(confMicro)]++
	if lowConf {
		w.lowConf++
	}
	w.n++
	s.total++
	if w.n < int64(s.windowSize) {
		return false
	}
	s.advanced++
	s.cur = (s.cur + 1) % len(s.windows)
	s.windows[s.cur].reset()
	return true
}

// AggregateInto sums the ring into the caller-owned buffers (each
// must be at least numClasses / numPatterns / obs.NumHistBuckets
// long; the caller zeroes them) and returns the observation and
// low-confidence totals. Allocation-free so the window-boundary
// re-score can run inside the Predict hot path. Nil-safe.
func (s *Sketch) AggregateInto(classes, fire, conf, density []int64) (n, lowConf int64) {
	if s == nil {
		return 0, 0
	}
	for i := range s.windows {
		w := &s.windows[i]
		n += w.n
		lowConf += w.lowConf
		for j, c := range w.classes {
			classes[j] += c
		}
		for j, c := range w.fire {
			fire[j] += c
		}
		for j, c := range w.conf {
			conf[j] += c
		}
		for j, c := range w.density {
			density[j] += c
		}
	}
	return n, lowConf
}

// Total returns the lifetime observation count. Nil-safe.
func (s *Sketch) Total() int64 {
	if s == nil {
		return 0
	}
	return s.total
}

// Advanced returns how many windows have completed. Nil-safe.
func (s *Sketch) Advanced() int64 {
	if s == nil {
		return 0
	}
	return s.advanced
}

// Capacity returns the maximum observations the ring retains at
// once (windowSize × windows). Nil-safe.
func (s *Sketch) Capacity() int {
	if s == nil {
		return 0
	}
	return s.windowSize * len(s.windows)
}

// SketchSnapshot is the exported aggregate of a Sketch's ring, used
// by the determinism suite to pin sketch state byte-identical across
// worker counts (gob-encode it and compare).
type SketchSnapshot struct {
	Total      int64
	Advanced   int64
	WindowSize int
	Windows    int
	Classes    []int64
	Fire       []int64
	Conf       []int64
	Density    []int64
	LowConf    int64
}

// Snapshot aggregates the ring into an exported, comparable value.
// Cold path (debug endpoints and tests); allocates. Nil-safe.
func (s *Sketch) Snapshot() SketchSnapshot {
	if s == nil {
		return SketchSnapshot{}
	}
	snap := SketchSnapshot{
		Total:      s.total,
		Advanced:   s.advanced,
		WindowSize: s.windowSize,
		Windows:    len(s.windows),
		Classes:    make([]int64, s.numClasses),
		Fire:       make([]int64, s.numPatterns),
		Conf:       make([]int64, obs.NumHistBuckets),
		Density:    make([]int64, obs.NumHistBuckets),
	}
	_, snap.LowConf = s.AggregateInto(snap.Classes, snap.Fire, snap.Conf, snap.Density)
	return snap
}

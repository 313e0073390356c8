package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numHistBuckets is the fixed bucket count of every Histogram: bucket i
// holds samples v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds zeros and clamped negatives). 64 buckets cover the
// full positive int64 range, so nanosecond latencies and byte counts
// both fit without configuration.
const numHistBuckets = 64

// NumHistBuckets exports the fixed bucket count so sibling packages
// (modelobs baselines and sketches) can size bucket arrays that stay
// index-compatible with obs histograms.
const NumHistBuckets = numHistBuckets

// Histogram is a lock-free distribution of int64 samples over fixed
// log2-spaced buckets — the obs type behind per-stage latency and
// allocation distributions. Observe is two atomic adds on the hot
// path; snapshots and quantiles walk the fixed bucket array without
// blocking writers. The zero value is usable; a nil Histogram is a
// no-op, like every other obs recorder.
type Histogram struct {
	counts [numHistBuckets]atomic.Int64
	sum    atomic.Int64
}

// histBucket maps a sample to its bucket index.
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketIndex maps a sample to its log2 bucket index — the exported
// face of histBucket, for callers (modelobs) that maintain their own
// bucket arrays in the same layout.
func BucketIndex(v int64) int { return histBucket(v) }

// BucketUpperBound returns the inclusive upper bound of bucket i:
// 0 for bucket 0, 2^i − 1 for the rest (saturating at MaxInt64).
func BucketUpperBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= 63:
		return math.MaxInt64
	default:
		return int64(1)<<uint(i) - 1
	}
}

// Observe records one sample. Negative samples are clamped to zero so
// a clock hiccup cannot corrupt the distribution.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by
// linear interpolation inside the winning log2 bucket. Zero samples
// yield zero.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Snapshot captures the histogram's current state. The snapshot holds
// only the non-empty buckets (ascending by bound) plus precomputed
// p50/p90/p99, and is what RunReports serialize.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	var s HistogramSnapshot
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{
				UpperBound: BucketUpperBound(i),
				Count:      c,
			})
			s.Count += c
		}
	}
	s.Sum = h.sum.Load()
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// HistogramBucket is one non-empty bucket of a snapshot: the count of
// samples at or below UpperBound but above the previous bucket's bound.
// Counts are per-bucket, not cumulative.
type HistogramBucket struct {
	UpperBound int64 `json:"le"`
	Count      int64 `json:"count"`
}

// HistogramSnapshot is the serializable form of a Histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile from the snapshot's buckets by
// linear interpolation between the winning bucket's bounds.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	lo := int64(0)
	for _, b := range s.Buckets {
		if cum+b.Count >= target {
			frac := float64(target-cum) / float64(b.Count)
			est := float64(lo) + frac*float64(b.UpperBound-lo)
			return int64(est)
		}
		cum += b.Count
		lo = b.UpperBound
	}
	return s.Buckets[len(s.Buckets)-1].UpperBound
}

// Histogram returns the named histogram, creating it on first use; nil
// — a valid no-op histogram — on a nil observer. Hot paths should look
// the histogram up once and retain it.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.reg.mu.RLock()
	h := o.reg.histograms[name]
	o.reg.mu.RUnlock()
	if h != nil {
		return h
	}
	o.reg.mu.Lock()
	defer o.reg.mu.Unlock()
	if h = o.reg.histograms[name]; h == nil {
		h = &Histogram{}
		o.reg.histograms[name] = h
	}
	return h
}

// histogramValues snapshots the histogram registry.
func (o *Observer) histogramValues() map[string]HistogramSnapshot {
	o.reg.mu.RLock()
	defer o.reg.mu.RUnlock()
	if len(o.reg.histograms) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(o.reg.histograms))
	for name, h := range o.reg.histograms {
		out[name] = h.Snapshot()
	}
	return out
}

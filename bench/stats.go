package main

import (
	"slices"

	"dfpc/internal/telemetry"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); xs is not modified. It returns 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of
// xs by the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so spreads printed here match the ones
// an outside harness computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m, m
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// latency summarises one block of per-request latencies in ns: the
// median and the nearest-rank 99th percentile. A block of 1000
// requests leaves exactly 10 samples above its p99.
func latency(ns []int64) (p50, p99 float64) {
	if len(ns) == 0 {
		return 0, 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(s[(len(s)-1)/2]), float64(telemetry.P99(s))
}

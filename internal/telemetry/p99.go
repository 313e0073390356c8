package telemetry

import "sort"

// P99 returns the 99th-percentile value of samples (nearest-rank on a
// sorted copy; the input is not modified). Zero samples return 0.
func P99(samples []int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// Nearest-rank: ceil(0.99·n) as a 1-based rank.
	rank := (99*len(s) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

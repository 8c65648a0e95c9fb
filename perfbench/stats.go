package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a single outlier cannot be the
// reported tail.
const minBeyond = 10

// median returns the middle value of xs (the mean of the middle pair for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100)
// and whether it may be reported: ok is false unless at least minBeyond
// samples rank strictly above it.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// maxOf returns the largest value of xs, or 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// jobMetrics sets the job latency median, the p99 when the percentile
// rule allows it, and the completion rate.
func jobMetrics(latMS []float64, perSecond float64, m map[string]float64) {
	m["job_p50_ms"] = median(latMS)
	if v, ok := percentile(latMS, 99); ok {
		m["job_p99_ms"] = v
	}
	m["jobs_per_s"] = perSecond
}

package main

import (
	"math"
	"sort"
)

// minBeyond is the tail rule: a tail percentile is reported only where
// at least this many samples lie strictly beyond it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is Python's statistics.median: the middle sample, or the mean
// of the two middle samples. NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method, so the spread this benchmark reports is the one
// a Python reader of the same values computes. One sample yields that
// sample three times; none yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	ld := len(xs)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// tail applies the tail rule: it returns the highest-ranked sample
// that still has at least minBeyond samples strictly greater than it,
// and the percentile it sits at (the share of samples at or below it).
// ok is false when no sample qualifies (fewer than minBeyond+1
// samples, or ties swallow the top of the distribution).
func tail(xs []float64) (value, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for i := n - 1 - minBeyond; i >= 0; i-- {
		// Samples strictly greater than s[i]: skip its ties upward.
		k := sort.Search(n, func(j int) bool { return s[j] > s[i] })
		if n-k >= minBeyond {
			// Report the last tie of the value, so pct counts every
			// sample at or below it.
			return s[i], 100 * float64(k) / float64(n), true
		}
	}
	return math.NaN(), math.NaN(), false
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure bounds are compared against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

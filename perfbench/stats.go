package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method). A single sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least tailBeyond
// samples beyond it, and that percentile. Below 2*tailBeyond samples that
// percentile would not exceed the median, so tail returns the maximum
// with ok false instead, and the caller says the tail is only the worst
// sample seen.
func tail(xs []float64) (value, pct float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, false
	}
	if n < 2*tailBeyond {
		return s[n-1], 100, false
	}
	k := n - 1 - tailBeyond // s[k] has exactly tailBeyond samples after it
	return s[k], 100 * float64(k+1) / float64(n), true
}

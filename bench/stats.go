package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of all samples at or below it. It
// returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// p*n is formed before dividing so whole-number ranks stay exact.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n) / 100))
	return min(max(r, 1), n)
}

// tailPercentile returns the highest whole percentile below 100 that has at
// least minBeyond of n samples above its nearest rank — the highest tail
// percentile a run of n ops can report without resting on a handful of
// samples. It reports false when no percentile qualifies.
func tailPercentile(n, minBeyond int) (int, bool) {
	for p := 99; p >= 1; p-- {
		if n-rank(n, float64(p)) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed as Python's statistics.quantiles(xs, n=4) does with its default
// "exclusive" method, so spreads read the same whichever tool computes them.
// One sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
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
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run spread the comparison protocol holds against each bound. A zero
// median gives 0 when every sample is zero and +Inf otherwise.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	switch {
	case q3 == q1:
		return 0
	case q2 == 0:
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

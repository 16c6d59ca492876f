package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{4.5}, 50, 4.5},
		{"single p99", []float64{4.5}, 99, 4.5},
		{"median of ten", ten, 50, 5},
		{"p90 of ten is the ninth", ten, 90, 9},
		{"p91 of ten rounds up", ten, 91, 10},
		{"p100 is the maximum", ten, 100, 10},
		{"tiny p is the minimum", ten, 1, 1},
		{"ties", []float64{2, 2, 2, 7}, 75, 2},
		{"ties past the run", []float64{2, 2, 2, 7}, 76, 7},
		{"even count median is the lower middle", []float64{1, 2, 3, 4}, 50, 2},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("%s: percentile(%v, %g) = %g, want %g", c.name, c.xs, c.p, got, c.want)
		}
	}
}

func TestPercentileLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("percentile reordered its input: %v", xs)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n, beyond int
		want      int
		ok        bool
	}{
		{0, 10, 0, false},
		{1, 10, 0, false},
		{10, 10, 0, false},
		{11, 10, 9, true},   // rank(11, 9) = 1, ten samples above it
		{100, 10, 90, true}, // rank 90, samples 91..100 beyond
		{120, 12, 90, true},
		{66, 10, 84, true}, // rank(66, 84) = 56; p85 has rank 57, nine beyond
		{1000, 10, 99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n, c.beyond)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %d) = %d, %t; want %d, %t", c.n, c.beyond, got, ok, c.want, c.ok)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		name       string
		xs         []float64
		q1, q2, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"single", []float64{7}, 7, 7, 7},
		{"two extrapolate", []float64{5, 1}, 0, 3, 6},
		{"four", []float64{4, 3, 2, 1}, 1.25, 2.5, 3.75},
		{"ties", []float64{3, 7, 3, 7, 3}, 3, 3, 7},
		{"all equal", []float64{2, 2}, 2, 2, 2},
		{"ten", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("%s: quartiles(%v) = %g, %g, %g; want %g, %g, %g", c.name, c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}); got != 1 {
		t.Errorf("spread of 10..100 = %g, want (82.5-27.5)/55 = 1", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of zeros = %g, want 0", got)
	}
	if got := spread([]float64{-1, 0, 1}); !math.IsInf(got, 1) {
		t.Errorf("spread around a zero median = %g, want +Inf", got)
	}
	if got := spread(nil); got != 0 {
		t.Errorf("spread of nothing = %g, want 0", got)
	}
}

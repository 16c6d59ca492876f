package main

import (
	"math"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	higher := metricRule{higher: true, bound: 0.10}
	lower := metricRule{higher: false, bound: 0.10}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name   string
		rule   metricRule
		pv, cv []float64
		wins   int
		want   string
	}{
		{"every pair wins by more than the spread", higher, parent, []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, 10, "gain"},
		{"lower is better", lower, parent, []float64{90, 91, 89, 90, 92, 88, 90, 91, 89, 90}, 10, "gain"},
		{"eight wins of ten is not a gain", higher, parent, []float64{110, 111, 109, 110, 112, 108, 110, 111, 90, 90}, 8, "no change"},
		{"worse within the bound", higher, parent, []float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 95}, 0, "no change"},
		{"worse beyond the bound", higher, parent, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, 0, "regression"},
		{"noisy parent", higher, []float64{50, 150, 60, 140, 100, 70, 130, 100, 80, 120}, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, 3, "unresolved"},
		{"no bound: per-layer metric", metricRule{higher: true, bound: math.NaN()}, parent, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, 0, "no change"},
	}
	for _, c := range cases {
		wins, pairs, v := c.rule.verdict(c.pv, c.cv)
		if wins != c.wins || pairs != len(c.pv) || v != c.want {
			t.Errorf("%s: verdict = %d/%d %s, want %d/%d %s", c.name, wins, pairs, v, c.wins, len(c.pv), c.want)
		}
	}
}

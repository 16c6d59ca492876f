package main

import "testing"

func TestHostSpeedAround(t *testing.T) {
	h := hostSpeed{at: []float64{0, 0.5, 1, 2}, msPer: []float64{1, 2, 3, 4}}
	cases := []struct {
		name     string
		from, to float64
		want     float64
	}{
		{"one sample in the window", 0.45, 0.55, 2},
		{"the window widens the interval", 0.6, 0.95, 2},
		{"median of several", 0, 1, 2},
		{"none in the window: the nearer before", 1.4, 1.5, 3},
		{"none in the window: the nearer after", 1.7, 1.8, 4},
		{"after every sample", 5, 6, 4},
		{"before every sample", -1, -0.5, 1},
	}
	for _, c := range cases {
		if got := h.around(c.from, c.to); got != c.want {
			t.Errorf("%s: around(%g, %g) = %g, want %g", c.name, c.from, c.to, got, c.want)
		}
	}
	if got := (hostSpeed{}).around(0, 1); got != 0 {
		t.Errorf("no samples: around = %g, want 0", got)
	}
}

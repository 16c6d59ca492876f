package trace

import (
	"math"
	"testing"
)

func TestNewStat(t *testing.T) {
	s := NewStat([]float64{1, 2, 3, 6})
	if s.N != 4 || s.Mean != 3 || s.Min != 1 || s.Max != 6 {
		t.Errorf("stat %+v", s)
	}
	wantSD := math.Sqrt((4 + 1 + 0 + 9) / 3.0)
	if math.Abs(s.StdDev-wantSD) > 1e-12 {
		t.Errorf("stddev %v, want %v", s.StdDev, wantSD)
	}
	wantCI := 1.96 * wantSD / 2
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Errorf("ci95 %v, want %v", s.CI95, wantCI)
	}
}

func TestNewStatDegenerateSamples(t *testing.T) {
	if s := NewStat(nil); s.N != 0 || s.Mean != 0 || s.CI95 != 0 {
		t.Errorf("empty stat %+v", s)
	}
	s := NewStat([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.StdDev != 0 || s.CI95 != 0 || s.Min != 5 || s.Max != 5 {
		t.Errorf("singleton stat %+v", s)
	}
}

func TestStatHeaderMatchesColumns(t *testing.T) {
	h := StatHeader("err")
	want := []string{"err_mean", "err_stddev", "err_ci95", "err_min", "err_max"}
	if len(h) != len(want) {
		t.Fatalf("header %v", h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("header[%d] = %q, want %q", i, h[i], want[i])
		}
	}
	s := NewStat([]float64{1, 2})
	cols := s.Columns()
	if len(cols) != len(h) {
		t.Fatalf("Columns returns %d values for %d headers", len(cols), len(h))
	}
	if cols[0] != s.Mean || cols[1] != s.StdDev || cols[2] != s.CI95 || cols[3] != s.Min || cols[4] != s.Max {
		t.Errorf("columns %v for stat %+v", cols, s)
	}
}

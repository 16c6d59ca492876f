package trace

import "math"

// Stat summarizes one scalar metric over a sample of independent trials:
// the aggregate every cell of a paper table should carry instead of a
// single-point estimate.
type Stat struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	// CI95 is the half-width of the 95% confidence interval on the mean
	// under the normal approximation (1.96·sd/√n); 0 when n < 2.
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// NewStat computes the summary of samples. Sample order does not matter
// mathematically, but the two-pass computation is exact enough that equal
// multisets produce bit-identical results — a property the experiment
// harness's determinism guarantee rests on, since it always aggregates in
// trial order.
func NewStat(samples []float64) Stat {
	s := Stat{N: len(samples)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = samples[0], samples[0]
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N < 2 {
		return s
	}
	var ss float64
	for _, v := range samples {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N-1))
	s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	return s
}

// StatHeader names the CSV columns Columns emits for a metric, in order.
func StatHeader(metric string) []string {
	return []string{
		metric + "_mean",
		metric + "_stddev",
		metric + "_ci95",
		metric + "_min",
		metric + "_max",
	}
}

// Columns returns the values matching StatHeader, for WriteCSV rows.
func (s Stat) Columns() []float64 {
	return []float64{s.Mean, s.StdDev, s.CI95, s.Min, s.Max}
}

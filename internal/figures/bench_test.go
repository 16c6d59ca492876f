package figures

import (
	"testing"

	"meecc/internal/exp"
)

// BenchmarkFig8Noise regenerates §5.4 (Figure 8): one trial of the figure's
// spec, the 128-bit '100100...' sequence under the four noise environments,
// on one worker. It reports quiet and 4 KB-stride MEE-noise error bits
// (paper: 1 and 5).
func BenchmarkFig8Noise(b *testing.B) {
	var quiet, meeNoise float64
	for i := 0; i < b.N; i++ {
		env := &Env{Seed: uint64(3 + i), Trials: 1, Window: 15000}
		rep, err := exp.RunSpec(fig8Spec(env), exp.Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		// A cell whose trial failed setup keeps the prior metric.
		if c := rep.Cell("noise=none"); c.Failures == 0 {
			quiet = c.Stat("bit_errors").Mean
		}
		if c := rep.Cell("noise=mee4k"); c.Failures == 0 {
			meeNoise = c.Stat("bit_errors").Mean
		}
	}
	b.ReportMetric(quiet, "errBitsQuiet")
	b.ReportMetric(meeNoise, "errBitsMEE4K")
}

package exp

import "testing"

// BenchmarkSharedAxesRun runs a paired Fig 7 grid through Run on two
// workers: seven windows share each of four seeds, so the dispatcher hands
// one worker a seed's seven trials as a unit while the other warms the
// next seed. It reports trial throughput over the whole run, warm-ups
// included.
func BenchmarkSharedAxesRun(b *testing.B) {
	spec := &Spec{
		Name:       "bench-shared",
		Study:      "channel",
		BaseSeed:   42,
		Trials:     4,
		Params:     map[string]string{"bits": "64", "pattern": "random"},
		Axes:       []Axis{{Name: "window", Values: []string{"5000", "7500", "10000", "15000", "20000", "25000", "30000"}}},
		SharedAxes: []string{"window"},
	}
	trials := 0
	for i := 0; i < b.N; i++ {
		rep, err := RunSpec(spec, Config{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if n := rep.Failures(); n > 0 {
			b.Fatalf("%d of %d trials failed", n, len(rep.Trials))
		}
		trials += len(rep.Trials)
	}
	b.ReportMetric(float64(trials)/b.Elapsed().Seconds(), "trials/s")
}

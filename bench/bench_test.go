package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"meecc/internal/obs"
)

// TestWorkloadsSmoke runs every workload traced at its smallest size. A
// traced run also runs the untraced pass, so one run per workload emits both
// metric sets; the test holds them to BENCHMARK.json and checks that every
// correctness gate passes, the Chrome trace validates, no span was dropped,
// every per-layer time was measured, and the served workload reached its
// disk tier and left nothing in its directory.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def                   `json:"end_to_end"`
		PerLayer []def                   `json:"per_layer"`
		Work     []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		json []def
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.code) {
			t.Errorf("BENCHMARK.json lists %d metrics where the benchmark reports %d", len(pair.json), len(pair.code))
			continue
		}
		for i, d := range pair.json {
			if c := pair.code[i]; d.Name != c.name || d.Unit != c.unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), the benchmark reports %s (%s)", i, d.Name, d.Unit, c.name, c.unit)
			}
		}
	}
	if len(b.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Work), len(workloads))
	}

	for _, w := range b.Work {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := run(options{workload: w.Name, seed: 7, trace: true, small: true, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.checks {
				t.Errorf("check failed: %s", c)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%d ops attempted, %d failed", res.attempted, res.failed)
			}
			for _, set := range []struct {
				defs []metricDef
				vals map[string]float64
			}{{endToEnd, res.endToEnd}, {perLayer, res.perLayer}} {
				for _, d := range set.defs {
					if _, ok := set.vals[d.name]; !ok {
						t.Errorf("metric %s not emitted", d.name)
					}
				}
			}
			if n := res.perLayer["trace.spans_dropped"]; n != 0 {
				t.Errorf("trace.spans_dropped = %g", n)
			}
			// Donor passes time the layers a workload does not reach, so no
			// per-layer time reads zero.
			for _, d := range perLayer {
				if d.unit == "ms" && res.perLayer[d.name] <= 0 {
					t.Errorf("%s = %g, want a measured time", d.name, res.perLayer[d.name])
				}
			}
			trace, err := os.ReadFile(res.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obs.ValidateChromeTrace(trace); err != nil {
				t.Errorf("chrome trace: %v", err)
			}
			if w.Name == "served" && res.perLayer["core.warm_disk_loads"] == 0 {
				t.Error("the served pass faulted no warm state in from disk")
			}
			left, err := filepath.Glob(filepath.Join(dir, "served-*"))
			if err != nil || len(left) != 0 {
				t.Errorf("served temp dirs left behind: %v (%v)", left, err)
			}
		})
	}
}

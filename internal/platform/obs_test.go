package platform

import (
	"bytes"
	"testing"

	"meecc/internal/enclave"
	"meecc/internal/obs"
)

// TestPlatformObservabilityEndToEnd boots a platform with a full observer
// (instruments + tracer), drives enclave traffic through two threads, and
// checks the whole observability surface at once: the semantic snapshot
// carries sim/mee/cache counters, the diagnostic snapshot adds scheduler
// internals, and the exported Chrome trace validates with one track per
// actor plus the MEE hit-level counter track.
func TestPlatformObservabilityEndToEnd(t *testing.T) {
	o := obs.NewObserver().WithTracer(1 << 12)
	cfg := DefaultConfig(7)
	cfg.Obs = o
	p := New(cfg)
	defer p.Close()

	if p.Obs() != o {
		t.Fatal("platform does not expose its observer")
	}

	spawn := func(name string, core int) {
		pr := p.NewProcess(name)
		if _, err := pr.CreateEnclave(4); err != nil {
			t.Fatal(err)
		}
		p.SpawnThread(name, pr, core, func(th *Thread) {
			th.EnterEnclave()
			base := th.Process().Enclave().Base
			for i := 0; i < 64; i++ {
				th.Access(base + enclave.VAddr(512*(i%8)))
				th.Flush(base + enclave.VAddr(512*(i%8)))
			}
		})
	}
	spawn("spy", 0)
	spawn("victim", 1)
	p.Run(-1)

	snap := o.Snapshot()
	for _, name := range []string{"sim.ops", "sim.busy_cycles", "sim.clock", "sim.spawns", "mee.reads", "cache.mee.fills"} {
		if snap.Counters[name] == 0 {
			t.Errorf("semantic counter %q missing: %v", name, snap.Counters)
		}
	}
	if _, ok := snap.Counters["sim.resumes"]; ok {
		t.Error("diagnostic sim.resumes leaked into the semantic snapshot")
	}
	all := o.SnapshotAll()
	if all.Counters["sim.resumes"] == 0 {
		t.Error("sim.resumes missing from the full snapshot")
	}

	var buf bytes.Buffer
	if err := o.Tracer().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	tracks := map[string]bool{}
	for _, tr := range sum.Tracks {
		tracks[tr] = true
	}
	for _, want := range []string{"spy", "victim"} {
		if !tracks[want] {
			t.Errorf("trace missing actor track %q (have %v)", want, sum.Tracks)
		}
	}
	foundHits := false
	for _, c := range sum.Counters {
		if c == "mee.hit_level" {
			foundHits = true
		}
	}
	if !foundHits {
		t.Errorf("trace missing mee.hit_level counter track (have %v)", sum.Counters)
	}
	if sum.Slices == 0 {
		t.Error("trace contains no scheduler batch slices")
	}
	if sum.LastUs <= 0 {
		t.Errorf("trace span %v us, want > 0", sum.LastUs)
	}

	// CSV export of the same ring is non-empty and line-per-event.
	var csv bytes.Buffer
	if err := o.Tracer().WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(csv.Bytes(), []byte("\n")); lines != o.Tracer().Len()+1 {
		t.Errorf("CSV has %d lines for %d events", lines, o.Tracer().Len())
	}
}

package obs

import "testing"

// The hot-path contract: emission into live instruments never allocates, in
// both the enabled and disabled (nil) states. Setup paths (Name, Track,
// observer lookups) are allowed to allocate.

func TestEmissionAllocFree(t *testing.T) {
	o := NewObserver()
	c := o.Counter("c")
	h := o.Histogram("h")
	tr := NewTracer(8)
	name := tr.Name("e")
	track := tr.Track("t")

	cases := map[string]func(){
		"counter.inc":      func() { c.Inc() },
		"counter.add":      func() { c.Add(3) },
		"histogram":        func() { h.Observe(1234) },
		"tracer.slice":     func() { tr.Slice(track, name, 1, 2) },
		"tracer.instant":   func() { tr.Instant(track, name, 1, 2) },
		"tracer.count":     func() { tr.Count(name, 1, 2) },
		"nil.counter":      func() { (*Counter)(nil).Inc() },
		"nil.histogram":    func() { (*Histogram)(nil).Observe(1) },
		"nil.tracer.slice": func() { (*Tracer)(nil).Slice(0, 0, 1, 2) },
	}
	for label, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", label, n)
		}
	}
	// The ring keeps absorbing emissions allocation-free after wrapping.
	if n := testing.AllocsPerRun(200, func() { tr.Instant(track, name, 9, 9) }); n != 0 {
		t.Errorf("wrapped ring: %v allocs/op, want 0", n)
	}
}

func TestSnapshotOfEmptyObserverIsStable(t *testing.T) {
	a := NewObserver().Snapshot().Encode()
	b := NewObserver().Snapshot().Encode()
	if string(a) != string(b) {
		t.Fatalf("empty snapshots differ:\n%s\n---\n%s", a, b)
	}
}

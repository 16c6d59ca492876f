package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 {
		t.Error("nil histogram has observations")
	}
	var o *Observer
	if o.Counter("x") != nil || o.DiagnosticCounter("x") != nil ||
		o.Histogram("x") != nil || o.Tracer() != nil ||
		o.Snapshot() != nil || o.SnapshotAll() != nil {
		t.Error("nil observer is not fully inert")
	}
	o.Sample("x", Semantic, func() uint64 { return 1 })
	if o.WithTracer(16) != nil {
		t.Error("WithTracer on nil observer returned non-nil")
	}
}

func TestCounterIdempotentRegistration(t *testing.T) {
	o := NewObserver()
	a := o.Counter("mee.reads")
	b := o.Counter("mee.reads")
	if a != b {
		t.Fatal("same name produced distinct counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("shared counter value %d, want 3", a.Value())
	}
}

func TestSnapshotClassFiltering(t *testing.T) {
	o := NewObserver()
	o.Counter("sem").Add(5)
	o.DiagnosticCounter("diag").Add(9)
	o.Counter("zero") // untouched: must be omitted
	o.Sample("sample.sem", Semantic, func() uint64 { return 11 })
	o.Sample("sample.diag", Diagnostic, func() uint64 { return 13 })

	s := o.Snapshot()
	if s.Counters["sem"] != 5 || s.Counters["sample.sem"] != 11 {
		t.Errorf("semantic snapshot %v", s.Counters)
	}
	for _, name := range []string{"diag", "sample.diag", "zero"} {
		if _, ok := s.Counters[name]; ok {
			t.Errorf("%s leaked into the semantic snapshot", name)
		}
	}
	all := o.SnapshotAll()
	if all.Counters["diag"] != 9 || all.Counters["sample.diag"] != 13 {
		t.Errorf("full snapshot %v", all.Counters)
	}
}

func TestSampleRefoldsOnReRegistration(t *testing.T) {
	o := NewObserver()
	v := uint64(10)
	o.Sample("g", Semantic, func() uint64 { return v })
	v = 25
	// A second component takes over the name: the old fn's final value (25)
	// folds into the baseline and the new fn accumulates on top.
	w := uint64(0)
	o.Sample("g", Semantic, func() uint64 { return w })
	w = 5
	if got := o.Snapshot().Counters["g"]; got != 30 {
		t.Fatalf("refolded sample = %d, want 30", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	o := NewObserver()
	h := o.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 4, 100, -5} {
		h.Observe(v)
	}
	s := o.Snapshot().Histograms["lat"]
	if s.Count != 7 || s.Min != -5 || s.Max != 100 || s.Sum != 105 {
		t.Fatalf("summary %+v", s)
	}
	want := map[int64]uint64{ // lo -> count
		0:  2, // 0 and -5
		1:  1, // 1
		2:  2, // 2, 3
		4:  1, // 4
		64: 1, // 100
	}
	for _, b := range s.Buckets {
		if want[b.Lo] != b.Count {
			t.Errorf("bucket [%d,%d] count %d, want %d", b.Lo, b.Hi, b.Count, want[b.Lo])
		}
		delete(want, b.Lo)
	}
	if len(want) != 0 {
		t.Errorf("missing buckets %v", want)
	}
}

func TestSnapshotEncodeCanonicalAndDecodes(t *testing.T) {
	build := func(order []string) []byte {
		o := NewObserver()
		for _, name := range order {
			o.Counter(name).Add(uint64(len(name)))
		}
		o.Histogram("h").Observe(9)
		return o.Snapshot().Encode()
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})
	if !bytes.Equal(a, b) {
		t.Fatalf("registration order changed encoding:\n%s\n---\n%s", a, b)
	}
	dec, err := DecodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Counters["alpha"] != 5 || dec.Histograms["h"].Count != 1 {
		t.Errorf("round trip lost data: %+v", dec)
	}
	if _, err := DecodeSnapshot([]byte(`{"schema_version": 999}`)); err == nil {
		t.Error("wrong schema version accepted")
	}
	if _, err := DecodeSnapshot([]byte(`garbage`)); err == nil {
		t.Error("garbage accepted")
	}
	var nilSnap *Snapshot
	if nilSnap.Encode() != nil {
		t.Error("nil snapshot encoded to bytes")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewObserver()
	a.Counter("bits").Add(10)
	b := NewObserver()
	b.Counter("bits").Add(20)
	b.Histogram("lat").Observe(4)
	s := NewSnapshot()
	s.Merge("static.", a.Snapshot())
	s.Merge("adaptive.", b.Snapshot())
	if s.Counters["static.bits"] != 10 || s.Counters["adaptive.bits"] != 20 {
		t.Errorf("merged counters %v", s.Counters)
	}
	if s.Histograms["adaptive.lat"].Count != 1 {
		t.Errorf("merged histograms %v", s.Histograms)
	}
	s.Merge("x.", nil) // must not panic
}

func TestSnapshotRender(t *testing.T) {
	o := NewObserver()
	o.Counter("sim.busy_cycles").Add(50)
	o.Counter("sim.clock").Add(200)
	o.Counter("mee.reads").Add(7)
	o.Histogram("mee.read_latency").Observe(33)
	var buf bytes.Buffer
	o.Snapshot().Render(&buf)
	out := buf.String()
	for _, want := range []string{"mee.reads", "sim.utilization", "25.0%", "mee.read_latency", "count=1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	NewSnapshot().Render(&empty)
	if !strings.Contains(empty.String(), "no metrics") {
		t.Errorf("empty render = %q", empty.String())
	}
}

package ops

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meecc/internal/obs"
)

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(4)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		r.Record("run-1", "run", "step", base.Add(time.Duration(i)*time.Second), time.Second)
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d, want 4 (ring cap)", r.Len())
	}
	if r.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", r.Dropped())
	}
	spans := r.Spans("run-1")
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Oldest surviving span is i=2.
	if !spans[0].Start.Equal(base.Add(2 * time.Second)) {
		t.Errorf("ring kept wrong spans: first start %v", spans[0].Start)
	}
}

func TestSpanRecorderFilterByRun(t *testing.T) {
	r := NewSpanRecorder(16)
	base := time.Now()
	r.Record("a", "run", "queue", base, time.Millisecond)
	r.Record("b", "run", "queue", base, time.Millisecond)
	r.Record("a", "slot-0", "trial", base, time.Millisecond)
	if got := len(r.Spans("a")); got != 2 {
		t.Errorf("Spans(a) = %d, want 2", got)
	}
	if got := len(r.Spans("")); got != 3 {
		t.Errorf("Spans(\"\") = %d, want 3", got)
	}
	var nilRec *SpanRecorder
	nilRec.Record("x", "t", "n", base, 0)
	if nilRec.Spans("") != nil || nilRec.Len() != 0 || nilRec.Dropped() != 0 {
		t.Error("nil recorder not a no-op")
	}
}

// lifecycleSpans records a realistic run lifecycle: run-track phases and
// trials on two worker slots.
func lifecycleSpans() []Span {
	r := NewSpanRecorder(64)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	r.Record("run-7", "run", "queue", base, 30*time.Millisecond)
	r.Record("run-7", "run", "execute", base.Add(30*time.Millisecond), 400*time.Millisecond)
	r.Record("run-7", "slot-0", "trial cellA/0", base.Add(35*time.Millisecond), 120*time.Millisecond)
	r.Record("run-7", "slot-1", "trial cellA/1", base.Add(36*time.Millisecond), 90*time.Millisecond)
	r.Record("run-7", "slot-0", "memo cellA/2", base.Add(160*time.Millisecond), time.Millisecond)
	r.Record("run-7", "run", "artifact", base.Add(430*time.Millisecond), 5*time.Millisecond)
	return r.Spans("run-7")
}

// TestChromeTraceValidates exports a realistic run lifecycle and checks it
// with the same structural validator the sim-clock traces use — the
// acceptance bar from PR 4 reused for wall-clock traces.
func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, lifecycleSpans()); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails ValidateChromeTrace: %v\n%s", err, buf.String())
	}
	if sum.Slices != 6 {
		t.Errorf("trace summary has %d slices, want 6", sum.Slices)
	}
}

func TestChromeTraceEmptyErrors(t *testing.T) {
	if err := WriteChromeTrace(&bytes.Buffer{}, nil); err == nil {
		t.Fatal("empty span list exported without error")
	}
}

// TestChromeTraceGolden pins the export's exact bytes, which
// /v1/runs/{id}/trace serves. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/obs/ops -run Golden after a deliberate
// format change.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, lifecycleSpans()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "lifecycle.trace.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("export drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	n := tr.Name("e")
	k := tr.Track("a")
	for i := int64(0); i < 6; i++ {
		tr.Instant(k, n, i, i)
	}
	if tr.Len() != 4 {
		t.Fatalf("len %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", tr.Dropped())
	}
	// The surviving window is the most recent: timestamps 2..5.
	for i := 0; i < tr.Len(); i++ {
		if got := tr.at(i).ts; got != int64(i+2) {
			t.Errorf("event %d ts %d, want %d", i, got, i+2)
		}
	}
}

func TestTracerInterningAndNilSafety(t *testing.T) {
	var nilT *Tracer
	if nilT.Name("x") != 0 || nilT.Track("x") != 0 {
		t.Error("nil tracer interned")
	}
	nilT.Slice(0, 0, 1, 2)
	nilT.Instant(0, 0, 1, 2)
	nilT.Count(0, 1, 2)
	nilT.SetCyclesPerMicrosecond(1)
	if nilT.Len() != 0 || nilT.Dropped() != 0 {
		t.Error("nil tracer recorded")
	}
	if err := nilT.WriteChromeJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil tracer exported")
	}
	if err := nilT.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Error("nil tracer exported CSV")
	}

	tr := NewTracer(8)
	if a, b := tr.Name("same"), tr.Name("same"); a != b {
		t.Error("name interning not stable")
	}
	if a, b := tr.Track("same"), tr.Track("same"); a != b {
		t.Error("track interning not stable")
	}
}

// buildTrace assembles a small trace covering every event kind.
func buildTrace() *Tracer {
	tr := NewTracer(64)
	tr.SetCyclesPerMicrosecond(4000) // 4 GHz
	spy := tr.Track("spy")
	victim := tr.Track("victim")
	batch := tr.Name("batch")
	probe := tr.Name("probe")
	hits := tr.Name("mee.hit_level")
	tr.Slice(spy, batch, 0, 4000)
	tr.Slice(victim, batch, 4000, 8000)
	tr.Instant(spy, probe, 12000, 42)
	tr.Count(hits, 12000, 3)
	return tr
}

// TestChromeJSONGoldenSchema pins the trace-event layout: phases, pid/tid
// assignment, metadata tracks, and microsecond scaling. This is the schema
// Perfetto consumes; changes here are breaking.
func TestChromeJSONGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if got.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q", got.DisplayTimeUnit)
	}
	// metadata: process_name + 2 tracks x (thread_name + thread_sort_index),
	// then 4 payload events.
	if len(got.TraceEvents) != 1+2*2+4 {
		t.Fatalf("%d events, want 9", len(got.TraceEvents))
	}
	byPhase := map[string][]map[string]any{}
	for _, ev := range got.TraceEvents {
		ph := ev["ph"].(string)
		byPhase[ph] = append(byPhase[ph], ev)
		if int(ev["pid"].(float64)) != TracePid {
			t.Errorf("event %v has pid %v", ev["name"], ev["pid"])
		}
	}
	if len(byPhase["M"]) != 5 || len(byPhase["X"]) != 2 || len(byPhase["i"]) != 1 || len(byPhase["C"]) != 1 {
		t.Fatalf("phase histogram M=%d X=%d i=%d C=%d",
			len(byPhase["M"]), len(byPhase["X"]), len(byPhase["i"]), len(byPhase["C"]))
	}
	// Slices: 4000 cycles at 4 GHz = 1 us.
	sl := byPhase["X"][0]
	if sl["ts"].(float64) != 0 || *jsonNum(sl, "dur") != 1 {
		t.Errorf("slice scaling: ts=%v dur=%v", sl["ts"], sl["dur"])
	}
	if int(sl["tid"].(float64)) != 1 { // first interned track
		t.Errorf("slice tid %v, want 1", sl["tid"])
	}
	// Instant carries scope and args.value.
	in := byPhase["i"][0]
	if in["s"].(string) != "t" {
		t.Errorf("instant scope %v", in["s"])
	}
	if v := in["args"].(map[string]any)["value"].(float64); v != 42 {
		t.Errorf("instant arg %v", v)
	}
	// Counter has args.value and no tid.
	c := byPhase["C"][0]
	if c["name"].(string) != "mee.hit_level" {
		t.Errorf("counter name %v", c["name"])
	}
	if _, hasTid := c["tid"]; hasTid {
		t.Error("counter event carries a tid")
	}
	if v := c["args"].(map[string]any)["value"].(float64); v != 3 {
		t.Errorf("counter value %v", v)
	}
}

// TestChromeJSONGolden pins the export's exact bytes. internal/obs/ops's
// span export shares the encoder, so a change made for one must not move
// the other. Regenerate with UPDATE_GOLDEN=1 go test ./internal/obs -run
// Golden after a deliberate format change.
func TestChromeJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "build.trace.json")
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

func jsonNum(ev map[string]any, key string) *float64 {
	if v, ok := ev[key].(float64); ok {
		return &v
	}
	return nil
}

func TestValidateChromeTraceAcceptsExport(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := ValidateChromeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Slices != 2 || sum.Instants != 1 {
		t.Errorf("summary %+v", sum)
	}
	if len(sum.Tracks) != 2 || sum.Tracks[0] != "spy" || sum.Tracks[1] != "victim" {
		t.Errorf("tracks %v", sum.Tracks)
	}
	if len(sum.Counters) != 1 || sum.Counters[0] != "mee.hit_level" {
		t.Errorf("counters %v", sum.Counters)
	}
	if sum.LastUs != 3 { // last event at 12000 cycles / 4000 = 3 us
		t.Errorf("lastUs %v, want 3", sum.LastUs)
	}
	var rep bytes.Buffer
	sum.Render(&rep)
	for _, want := range []string{"spy, victim", "mee.hit_level", "3.0 us"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("summary render missing %q:\n%s", want, rep.String())
		}
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not JSON":       `nope`,
		"empty events":   `{"traceEvents":[]}`,
		"unknown phase":  `{"traceEvents":[{"name":"thread_name","ph":"M","args":{"name":"a"}},{"name":"x","ph":"Z"}]}`,
		"slice sans dur": `{"traceEvents":[{"name":"thread_name","ph":"M","args":{"name":"a"}},{"name":"x","ph":"X","ts":1,"tid":1}]}`,
		"no tracks":      `{"traceEvents":[{"name":"x","ph":"i","ts":1}]}`,
		"counter no val": `{"traceEvents":[{"name":"thread_name","ph":"M","args":{"name":"a"}},{"name":"x","ph":"C","ts":1,"args":{}}]}`,
	}
	for label, data := range cases {
		if _, err := ValidateChromeTrace([]byte(data)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := buildTrace().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "ts_cycles,kind,track,name,value" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 1+4 {
		t.Fatalf("%d lines, want 5", len(lines))
	}
	if lines[1] != "0,slice,spy,batch,4000" {
		t.Errorf("first row %q", lines[1])
	}
	if lines[4] != "12000,counter,,mee.hit_level,3" {
		t.Errorf("counter row %q", lines[4])
	}
}

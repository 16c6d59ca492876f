package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// DefaultTraceCap is the default ring capacity: 1<<18 events at 32 bytes
// each is an 8 MiB fixed budget, enough for roughly 250k scheduler batches —
// several fig6b transmissions — before the ring starts overwriting.
const DefaultTraceCap = 1 << 18

// NameID is an interned event-name handle; intern once at setup with
// Tracer.Name, then emit by ID so the hot path never touches strings.
type NameID int32

// TrackID is an interned timeline-track handle (one track per actor, plus
// synthetic tracks such as "faults" and "channel").
type TrackID int32

// event kinds stored in the ring.
const (
	evSlice uint8 = iota // duration event: ts..ts+dur on a track
	evInstant
	evCounter // process-wide counter sample; track unused
)

// event is one fixed-size ring entry. For slices arg is the duration in
// cycles; for counters it is the sampled value; for instants it is a free
// argument (latency, fault intensity, ...).
type event struct {
	ts    int64
	arg   int64
	name  NameID
	track TrackID
	kind  uint8
}

// Tracer records sim-clock-stamped events into a preallocated ring buffer.
// When the ring is full the oldest events are overwritten, so a trace always
// holds the most recent window of activity and recording never allocates.
// Emission methods are nil-receiver safe; Name/Track may allocate and are
// meant for setup, not the hot path.
type Tracer struct {
	events  []event
	head, n int
	dropped uint64

	names    []string
	nameIdx  map[string]NameID
	tracks   []string
	trackIdx map[string]TrackID

	cyclesPerUs float64
}

// NewTracer returns a tracer with a preallocated ring of the given capacity
// (DefaultTraceCap when capacity <= 0). Timestamps export as microseconds
// assuming 4 GHz until SetCyclesPerMicrosecond overrides it.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{
		events:      make([]event, capacity),
		nameIdx:     make(map[string]NameID),
		trackIdx:    make(map[string]TrackID),
		cyclesPerUs: 4000,
	}
}

// SetCyclesPerMicrosecond sets the cycle-to-wall-time scale used on export
// (FreqGHz * 1000). No-op on a nil tracer or non-positive scale.
func (t *Tracer) SetCyclesPerMicrosecond(c float64) {
	if t != nil && c > 0 {
		t.cyclesPerUs = c
	}
}

// Name interns an event name and returns its ID (0 on a nil tracer).
func (t *Tracer) Name(s string) NameID {
	if t == nil {
		return 0
	}
	if id, ok := t.nameIdx[s]; ok {
		return id
	}
	id := NameID(len(t.names))
	t.names = append(t.names, s)
	t.nameIdx[s] = id
	return id
}

// Track interns a timeline track (rendered as one Perfetto thread) and
// returns its ID (0 on a nil tracer).
func (t *Tracer) Track(s string) TrackID {
	if t == nil {
		return 0
	}
	if id, ok := t.trackIdx[s]; ok {
		return id
	}
	id := TrackID(len(t.tracks))
	t.tracks = append(t.tracks, s)
	t.trackIdx[s] = id
	return id
}

func (t *Tracer) push(e event) {
	if len(t.events) == 0 {
		return
	}
	if t.n < len(t.events) {
		t.events[(t.head+t.n)%len(t.events)] = e
		t.n++
		return
	}
	t.events[t.head] = e
	t.head = (t.head + 1) % len(t.events)
	t.dropped++
}

// Slice records a duration event [start, start+dur] on a track. Safe on a
// nil receiver; never allocates.
func (t *Tracer) Slice(track TrackID, name NameID, start, dur int64) {
	if t == nil {
		return
	}
	t.push(event{ts: start, arg: dur, name: name, track: track, kind: evSlice})
}

// Instant records a point event with one free argument. Safe on a nil
// receiver; never allocates.
func (t *Tracer) Instant(track TrackID, name NameID, ts, arg int64) {
	if t == nil {
		return
	}
	t.push(event{ts: ts, arg: arg, name: name, track: track, kind: evInstant})
}

// Count records a process-wide counter sample (rendered as a Perfetto
// counter track). Safe on a nil receiver; never allocates.
func (t *Tracer) Count(name NameID, ts, value int64) {
	if t == nil {
		return
	}
	t.push(event{ts: ts, arg: value, name: name, kind: evCounter})
}

// Len returns the number of buffered events (0 on a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// at returns the i-th buffered event in recording order.
func (t *Tracer) at(i int) event { return t.events[(t.head+i)%len(t.events)] }

// ts converts a cycle stamp to trace microseconds.
func (t *Tracer) us(cycles int64) float64 { return float64(cycles) / t.cyclesPerUs }

// ChromeEvent is one entry of the Chrome trace-event JSON array; fields
// follow the trace-event format spec (ph X = complete slice, i = instant,
// C = counter, M = metadata). Both timeline exports build on it: the
// sim-clock Tracer here and internal/obs/ops's wall-clock spans.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid,omitempty"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object Perfetto loads.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []ChromeEvent `json:"traceEvents"`
}

// TracePid is the process id every exported trace event carries.
const TracePid = 1

// ChromeMetadata returns the metadata events that name the process and one
// thread track per entry of tracks, with tids 1..len(tracks) in order.
func ChromeMetadata(process string, tracks []string) []ChromeEvent {
	events := []ChromeEvent{{
		Name: "process_name", Ph: "M", Pid: TracePid,
		Args: map[string]any{"name": process},
	}}
	for id, name := range tracks {
		events = append(events,
			ChromeEvent{
				Name: "thread_name", Ph: "M", Pid: TracePid, Tid: id + 1,
				Args: map[string]any{"name": name},
			},
			ChromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: TracePid, Tid: id + 1,
				Args: map[string]any{"sort_index": id},
			})
	}
	return events
}

// WriteChromeEvents encodes events as the Chrome trace-event JSON object
// that Perfetto loads and ValidateChromeTrace checks.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{DisplayTimeUnit: "ms", TraceEvents: events})
}

// WriteChromeJSON exports the buffered events as Chrome trace-event JSON
// loadable in Perfetto or chrome://tracing: one thread track per interned
// track (named via thread_name metadata), plus counter tracks for Count
// events. Timestamps are microseconds of simulated wall time.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	events := ChromeMetadata("meecc-sim", t.tracks)
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		name := t.names[e.name]
		switch e.kind {
		case evSlice:
			dur := t.us(e.arg)
			events = append(events, ChromeEvent{
				Name: name, Ph: "X", Pid: TracePid, Tid: int(e.track) + 1,
				Ts: t.us(e.ts), Dur: &dur,
			})
		case evInstant:
			events = append(events, ChromeEvent{
				Name: name, Ph: "i", Pid: TracePid, Tid: int(e.track) + 1,
				Ts: t.us(e.ts), Scope: "t",
				Args: map[string]any{"value": e.arg},
			})
		case evCounter:
			events = append(events, ChromeEvent{
				Name: name, Ph: "C", Pid: TracePid,
				Ts:   t.us(e.ts),
				Args: map[string]any{"value": e.arg},
			})
		}
	}
	return WriteChromeEvents(w, events)
}

// WriteCSV exports the buffered events as a compact CSV with cycle-accurate
// timestamps: ts_cycles,kind,track,name,value (value = duration for slices,
// sampled value for counters, free argument for instants).
func (t *Tracer) WriteCSV(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil tracer")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "ts_cycles,kind,track,name,value")
	kinds := [...]string{evSlice: "slice", evInstant: "instant", evCounter: "counter"}
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		track := ""
		if e.kind != evCounter {
			track = t.tracks[e.track]
		}
		fmt.Fprintf(bw, "%d,%s,%s,%s,%d\n", e.ts, kinds[e.kind], track, t.names[e.name], e.arg)
	}
	return bw.Flush()
}

// TraceSummary describes a parsed Chrome trace for inspect-style reports.
type TraceSummary struct {
	Events   int
	Slices   int
	Instants int
	Tracks   []string // thread tracks, by thread_name metadata
	Counters []string // counter tracks, by name
	LastUs   float64  // timestamp of the latest event, microseconds
}

// ValidateChromeTrace checks that data is well-formed Chrome trace-event
// JSON as produced by WriteChromeJSON: a non-empty traceEvents array whose
// events carry a known phase, names, timestamps where required, and at least
// one named thread track. It returns a summary for rendering.
func ValidateChromeTrace(data []byte) (*TraceSummary, error) {
	var raw struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("trace JSON: %w", err)
	}
	if len(raw.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace JSON: empty traceEvents array")
	}
	sum := &TraceSummary{Events: len(raw.TraceEvents)}
	counters := map[string]bool{}
	str := func(ev map[string]json.RawMessage, key string) (string, error) {
		var s string
		r, ok := ev[key]
		if !ok {
			return "", fmt.Errorf("missing %q", key)
		}
		if err := json.Unmarshal(r, &s); err != nil {
			return "", fmt.Errorf("field %q: %w", key, err)
		}
		return s, nil
	}
	num := func(ev map[string]json.RawMessage, key string) (float64, error) {
		var f float64
		r, ok := ev[key]
		if !ok {
			return 0, fmt.Errorf("missing %q", key)
		}
		if err := json.Unmarshal(r, &f); err != nil {
			return 0, fmt.Errorf("field %q: %w", key, err)
		}
		return f, nil
	}
	for i, ev := range raw.TraceEvents {
		name, err := str(ev, "name")
		if err != nil {
			return nil, fmt.Errorf("event %d: %v", i, err)
		}
		ph, err := str(ev, "ph")
		if err != nil {
			return nil, fmt.Errorf("event %d (%s): %v", i, name, err)
		}
		switch ph {
		case "M":
			if name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				if err := json.Unmarshal(ev["args"], &args); err != nil || args.Name == "" {
					return nil, fmt.Errorf("event %d: thread_name metadata without args.name", i)
				}
				sum.Tracks = append(sum.Tracks, args.Name)
			}
		case "X":
			ts, err := num(ev, "ts")
			if err != nil {
				return nil, fmt.Errorf("event %d (%s): %v", i, name, err)
			}
			dur, err := num(ev, "dur")
			if err != nil || dur < 0 {
				return nil, fmt.Errorf("event %d (%s): slice needs dur >= 0", i, name)
			}
			if _, err := num(ev, "tid"); err != nil {
				return nil, fmt.Errorf("event %d (%s): slice needs tid", i, name)
			}
			sum.Slices++
			if end := ts + dur; end > sum.LastUs {
				sum.LastUs = end
			}
		case "i":
			ts, err := num(ev, "ts")
			if err != nil {
				return nil, fmt.Errorf("event %d (%s): %v", i, name, err)
			}
			sum.Instants++
			if ts > sum.LastUs {
				sum.LastUs = ts
			}
		case "C":
			ts, err := num(ev, "ts")
			if err != nil {
				return nil, fmt.Errorf("event %d (%s): %v", i, name, err)
			}
			var args struct {
				Value *float64 `json:"value"`
			}
			if err := json.Unmarshal(ev["args"], &args); err != nil || args.Value == nil {
				return nil, fmt.Errorf("event %d (%s): counter needs args.value", i, name)
			}
			counters[name] = true
			if ts > sum.LastUs {
				sum.LastUs = ts
			}
		default:
			return nil, fmt.Errorf("event %d (%s): unknown phase %q", i, name, ph)
		}
	}
	if len(sum.Tracks) == 0 {
		return nil, fmt.Errorf("trace JSON: no thread_name metadata (no actor tracks)")
	}
	for name := range counters {
		sum.Counters = append(sum.Counters, name)
	}
	sort.Strings(sum.Counters)
	return sum, nil
}

// Render writes the summary as a short text report.
func (s *TraceSummary) Render(w io.Writer) {
	fmt.Fprintf(w, "events:   %d (%d slices, %d instants)\n", s.Events, s.Slices, s.Instants)
	fmt.Fprintf(w, "span:     %.1f us simulated\n", s.LastUs)
	fmt.Fprintf(w, "tracks:   %s\n", strings.Join(s.Tracks, ", "))
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "counters: %s\n", strings.Join(s.Counters, ", "))
	}
}

package ops

import (
	"fmt"
	"io"
	"sync"
	"time"

	"meecc/internal/obs"
)

// Span is one wall-clock interval of a run's lifecycle: submit→admit→queue→
// dispatch→per-trial execute/memo-replay→artifact. Run groups the spans of
// one service run; Track is the timeline row the span renders on (the run
// row, or a trial slot).
type Span struct {
	Run   string
	Track string
	Name  string
	Start time.Time
	Dur   time.Duration
}

// SpanRecorder keeps the most recent spans in a fixed ring, mirroring the
// sim-clock tracer's shape: recording is cheap and bounded, old spans are
// overwritten, and the buffer exports as Chrome trace-event JSON that passes
// the same ValidateChromeTrace structural check as PR 4's sim traces. A nil
// *SpanRecorder is a no-op.
type SpanRecorder struct {
	mu      sync.Mutex
	spans   []Span
	head, n int
	dropped uint64
}

// DefaultSpanCap bounds the default ring: 16k spans covers thousands of
// runs' lifecycles before overwriting.
const DefaultSpanCap = 1 << 14

// NewSpanRecorder returns a recorder with a ring of the given capacity
// (DefaultSpanCap when capacity <= 0).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &SpanRecorder{spans: make([]Span, capacity)}
}

// Record appends one span. Safe on a nil receiver and for concurrent use.
func (r *SpanRecorder) Record(run, track, name string, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	sp := Span{Run: run, Track: track, Name: name, Start: start, Dur: dur}
	r.mu.Lock()
	if r.n < len(r.spans) {
		r.spans[(r.head+r.n)%len(r.spans)] = sp
		r.n++
	} else {
		r.spans[r.head] = sp
		r.head = (r.head + 1) % len(r.spans)
		r.dropped++
	}
	r.mu.Unlock()
}

// Spans returns the buffered spans for one run in recording order (run == ""
// returns everything). Nil recorders return nil.
func (r *SpanRecorder) Spans(run string) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for i := 0; i < r.n; i++ {
		sp := r.spans[(r.head+i)%len(r.spans)]
		if run == "" || sp.Run == run {
			out = append(out, sp)
		}
	}
	return out
}

// Len returns the number of buffered spans (0 on a nil recorder).
func (r *SpanRecorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns how many spans were overwritten after the ring filled.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteChromeTrace exports spans as Chrome trace-event JSON through obs's
// encoder, so ops traces load in Perfetto and validate with
// obs.ValidateChromeTrace exactly like sim-clock traces do: one thread per
// distinct Track (in order of first appearance), timestamps in microseconds
// relative to the earliest span. An empty span list is an error — an empty
// trace is useless and ValidateChromeTrace rejects it anyway.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("ops: no spans to export")
	}
	epoch := spans[0].Start
	for _, sp := range spans {
		if sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	var tracks []string
	tids := map[string]int{}
	for _, sp := range spans {
		if _, ok := tids[sp.Track]; !ok {
			tracks = append(tracks, sp.Track)
			tids[sp.Track] = len(tracks)
		}
	}
	events := obs.ChromeMetadata("meecc-serve", tracks)
	for _, sp := range spans {
		dur := float64(sp.Dur.Microseconds())
		if dur < 0 {
			dur = 0
		}
		args := map[string]any{}
		if sp.Run != "" {
			args["run"] = sp.Run
		}
		events = append(events, obs.ChromeEvent{
			Name: sp.Name, Ph: "X", Pid: obs.TracePid, Tid: tids[sp.Track],
			Ts:  float64(sp.Start.Sub(epoch).Microseconds()),
			Dur: &dur, Args: args,
		})
	}
	return obs.WriteChromeEvents(w, events)
}

package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"meecc/internal/core"
	"meecc/internal/exp"
	"meecc/internal/obs"
	"meecc/internal/obs/ops"
)

// tracer records a traced pass: one span at every layer boundary the
// benchmark calls across, kept in memory and written out as a Chrome trace
// when the run ends, plus the wall-clock registry the pass hands to
// exp.Config.Ops. A nil *tracer records nothing.
type tracer struct {
	rec   *ops.SpanRecorder
	reg   *ops.Registry
	warms atomic.Int64 // WarmChannel calls by trials that warm their own platform

	mu    sync.Mutex
	durMS map[string][]float64 // span name → durations
	free  []int                // released worker tracks
	next  int
}

func newTracer() *tracer {
	return &tracer{rec: ops.NewSpanRecorder(0), reg: ops.NewRegistry(), durMS: map[string][]float64{}}
}

// span records the span named name that began at start and ends now. run
// groups the spans of one op; track is the timeline row it renders on.
func (t *tracer) span(run, track, name string, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start)
	t.rec.Record(run, track, name, start, d)
	t.mu.Lock()
	t.durMS[name] = append(t.durMS[name], ms(d))
	t.mu.Unlock()
}

// durations returns every recorded span duration by span name.
func (t *tracer) durations() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]float64, len(t.durMS))
	for name, ds := range t.durMS {
		out[name] = append([]float64(nil), ds...)
	}
	return out
}

// trial leases the lowest free worker track for one trial. done records the
// trial's exp.trial span and returns the track.
func (t *tracer) trial(j exp.Job) (run, track string, done func()) {
	t.mu.Lock()
	id := t.next
	if n := len(t.free); n > 0 {
		id, t.free = t.free[n-1], t.free[:n-1]
	} else {
		t.next++
	}
	t.mu.Unlock()
	run = fmt.Sprintf("%s/%s/%d", j.Spec.Name, j.Cell.Key(), j.Trial)
	track = fmt.Sprintf("worker-%d", id)
	start := time.Now()
	return run, track, func() {
		t.span(run, track, "exp.trial", start)
		t.mu.Lock()
		t.free = append(t.free, id)
		t.mu.Unlock()
	}
}

// runner is the traced stand-in for exp's study runners. It makes the calls
// core.ChannelTrialWarm and core.ChaosTrial make, with a span around each
// layer call, so its results equal theirs; every pass checks that the traced
// artifacts equal the untraced ones. warm is the study's warm-state cache,
// used as the channel study uses it: only by specs with shared axes.
// Benchmark specs never set Spec.Metrics, so no observer is attached.
func (t *tracer) runner(study string, warm *core.WarmCache) (exp.Runner, error) {
	switch study {
	case "", "channel":
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			run, track, done := t.trial(j)
			defer done()
			cfg, err := core.BuildChannelConfig(j.Params(), j.Seed)
			if err != nil {
				return nil, nil, err
			}
			start := time.Now()
			var ws *core.ChannelWarmState
			if warm != nil && len(j.Spec.SharedAxes) > 0 {
				ws, err = warm.Warm(cfg)
			} else {
				t.warms.Add(1)
				ws, err = core.WarmChannel(cfg)
			}
			t.span(run, track, "core.warm", start)
			if err != nil {
				return nil, nil, err
			}
			start = time.Now()
			res, err := ws.Run(cfg)
			t.span(run, track, "core.transmit", start)
			if err != nil {
				return nil, nil, err
			}
			return exp.Metrics{
				"kbps":         res.KBps,
				"error_rate":   res.ErrorRate,
				"bit_errors":   float64(res.BitErrors),
				"bits":         float64(len(res.Sent)),
				"eviction_set": float64(res.EvictionSetSize),
				"setup_mcyc":   float64(res.SetupCycles) / 1e6,
			}, nil, nil
		}, nil
	case "chaos":
		return func(j exp.Job) (exp.Metrics, *obs.Snapshot, error) {
			run, track, done := t.trial(j)
			defer done()
			start := time.Now()
			m, snap, err := core.ChaosTrial(j.Params(), j.Seed, j.Spec.Metrics)
			t.span(run, track, "core.chaos_trial", start)
			return m, snap, err
		}, nil
	}
	return nil, fmt.Errorf("no traced runner for study %q", study)
}

// scrape parses the tracer's registry the way a /metrics scrape would.
func (t *tracer) scrape() (*ops.Scrape, error) {
	var buf bytes.Buffer
	if err := t.reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return ops.ParseText(&buf)
}

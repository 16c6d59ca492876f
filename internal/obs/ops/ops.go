// Package ops is the wall-clock operational telemetry layer for the serve
// service and the machinery under it. It is deliberately distinct from its
// parent package obs: obs measures *sim-clock* behavior inside one trial and
// feeds deterministic artifacts, while ops measures *wall-clock* behavior of
// the process serving those trials — request latencies, queue depths, journal
// health — and feeds operators. Nothing in this package may ever flow into an
// experiment artifact; the byte-identity tests run with ops fully enabled to
// prove the separation holds.
//
// The registry hands out lock-free instruments (atomic counters, gauges, and
// fixed-bucket histograms — increments are wait-free and allocation-free,
// pinned by AllocsPerRun tests) and exposes them in the Prometheus text
// format, so any scraper, `curl`, or the bundled `meecc top` dashboard can
// read a live server. Instruments are nil-receiver safe like their obs
// counterparts: a nil *Registry hands out nil instruments and every method on
// them is a no-op, so instrumented code needs no enable checks.
package ops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Instrument types, for the TYPE exposition line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing count. Inc/Add are wait-free and
// allocation-free; a nil *Counter is a no-op.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 value that can go up and down (queue depth, busy
// seconds). Set is a plain atomic store; Add is a CAS loop. Both are
// allocation-free; a nil *Gauge is a no-op.
type Gauge struct {
	labels string
	bits   atomic.Uint64
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds delta (negative to subtract). Safe on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DurationBuckets is the default histogram layout for wall-clock latencies:
// 10µs up to 60s, roughly 1-2.5-5 per decade. Prometheus convention: each
// value is an inclusive upper bound in seconds; +Inf is implicit.
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram accumulates a distribution into fixed cumulative-export buckets.
// Observe is wait-free per bucket (one atomic add for the bucket, the count,
// and a CAS for the float sum) and allocation-free. A nil *Histogram is a
// no-op.
type Histogram struct {
	labels  string
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Bounds are few (≤ ~21): linear scan beats binary search in practice
	// and keeps the code branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. Safe on a nil
// receiver.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// series is one labeled instance of a family.
type series struct {
	labels string // rendered `k="v",k2="v2"` form, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // gauge funcs, evaluated at scrape
}

// family is one exposition family: a name, HELP/TYPE metadata, and its
// labeled series.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          []*series
	byLabels        map[string]*series
}

// Registry owns a process's operational instruments and renders them in
// Prometheus text format. Instrument registration takes a mutex; the
// instruments themselves are lock-free. All methods are safe for concurrent
// use and safe on a nil receiver (which hands out nil no-op instruments).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels turns ("k","v","k2","v2") pairs into `k="v",k2="v2"`.
// Odd-length or empty input renders as unlabeled. Values are escaped per the
// exposition format.
func renderLabels(kv []string) string {
	if len(kv) < 2 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the (family, series) slot, enforcing one type per
// name. The instrument is created (and fn installed or replaced) under the
// family mutex, so registration can race freely with concurrent scrapes. A
// type conflict is a programming error and panics loudly — it would otherwise
// emit an exposition no parser accepts.
func (r *Registry) lookup(name, help, typ, labels string, bounds []float64, fn func() float64) *series {
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byLabels: map[string]*series{}}
		r.families[name] = f
	}
	r.mu.Unlock()
	if f.typ != typ {
		panic(fmt.Sprintf("ops: metric %q registered as %s and %s", name, f.typ, typ))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.byLabels[labels]
	if !ok {
		s = &series{labels: labels}
		switch typ {
		case typeCounter:
			s.c = &Counter{labels: labels}
		case typeGauge:
			s.g = &Gauge{labels: labels}
		case typeHistogram:
			s.h = &Histogram{labels: labels, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
		}
		f.byLabels[labels] = s
		f.series = append(f.series, s)
	}
	if fn != nil {
		s.fn = fn
	}
	return s
}

// Counter returns the counter with the given name and label pairs, creating
// it on first use. Repeated calls return the same counter. Nil registries
// return nil (no-op) counters.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeCounter, renderLabels(labelPairs), nil, nil).c
}

// Gauge returns the gauge with the given name and label pairs, creating it
// on first use. Nil registries return nil (no-op) gauges.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, typeGauge, renderLabels(labelPairs), nil, nil).g
}

// GaugeFunc registers a gauge evaluated at scrape time — the hook for
// surfacing existing stats (store bytes, journal size, goroutine counts)
// with zero steady-state cost. Re-registering a name+labels replaces the
// function, so a component restarted within one process reports its new
// state. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	if r == nil || fn == nil {
		return
	}
	r.lookup(name, help, typeGauge, renderLabels(labelPairs), nil, fn)
}

// Histogram returns the histogram with the given name, bucket upper bounds
// (nil means DurationBuckets), and label pairs, creating it on first use.
// Nil registries return nil (no-op) histograms.
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.lookup(name, help, typeHistogram, renderLabels(labelPairs), bounds, nil).h
}

// snapshotFamilies returns the families sorted by name with their series
// sorted by label string — the deterministic order WriteText renders.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

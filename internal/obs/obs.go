// Package obs is the simulator's observability layer: an Observer that owns
// plain-struct counters and histograms and an optional sim-clock timeline
// tracer with Chrome trace-event (Perfetto) export.
//
// The observer is built for a single-threaded discrete-event simulation. The
// sim engine serializes all actor execution, so instruments are plain uint64
// fields — no atomics, no mutexes, no interface dispatch on the hot path.
// Every instrument method is nil-receiver safe: code instruments itself
// unconditionally, and when observability is disabled (the default) the
// instrument pointers are nil and each call is a predictable nil-check that
// the zero-alloc hot paths pinned by the AllocsPerRun tests can absorb.
//
// Instruments come in two classes:
//
//   - Semantic: schedule-invariant facts of the simulation (cache hits, bits
//     decoded, stall cycles). These are byte-identical across worker counts
//     and across the heap and linear schedulers, and are what Snapshot()
//     returns — the form embedded in experiment artifacts.
//   - Diagnostic: facts about how the engine executed the schedule (actor
//     resumes, run-ahead batch truncations). These legitimately differ
//     between schedulers and are only included by SnapshotAll(), the form
//     used for single-run -metrics reports.
package obs

import "math/bits"

// Class partitions instruments by determinism contract; see the package
// comment.
type Class uint8

const (
	// Semantic instruments are schedule-invariant and appear in Snapshot().
	Semantic Class = iota
	// Diagnostic instruments depend on scheduler internals and appear only
	// in SnapshotAll().
	Diagnostic
)

// Counter is a monotonically increasing event count. The zero value is not
// useful; obtain counters from an Observer. A nil *Counter is a no-op, which
// is how disabled instrumentation stays near-free.
type Counter struct {
	name  string
	class Class
	v     uint64
}

// Inc adds one to the counter. Safe on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n to the counter. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// histBuckets is 1 (values <= 0) + one bucket per possible bit length of a
// positive int64 value.
const histBuckets = 1 + 64

// Histogram accumulates a distribution of int64 values in power-of-two
// buckets: bucket 0 holds values <= 0, bucket b (b >= 1) holds values with
// bit length b, i.e. [2^(b-1), 2^b - 1]. Fixed-size arrays keep Observe
// allocation-free; a nil *Histogram is a no-op.
type Histogram struct {
	name     string
	class    Class
	n        uint64
	sum      int64
	min, max int64
	counts   [histBuckets]uint64
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.counts[b]++
}

// Count returns the number of observed values (0 for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// sample is a deferred gauge: fn is evaluated only at snapshot time, so
// existing Stats structs can be surfaced with zero hot-path cost. When the
// same name is re-registered (a later platform in the same process reusing
// one observer — chaos arms, retries), the old fn's final value is folded
// into base so sequential runs accumulate instead of vanishing.
type sample struct {
	name  string
	class Class
	base  uint64
	fn    func() uint64
}

func (s *sample) value() uint64 { return s.base + s.fn() }

// Observer owns the instruments of one observed run and its optional
// timeline tracer; it is the single handle threaded through platform/core
// configuration. It is not safe for concurrent use — the sim engine
// serializes all actor execution, and each experiment trial builds its own
// observer. Every method is safe on a nil receiver: a nil *Observer IS the
// disabled state and hands out nil instruments, so callers never need their
// own enable checks.
type Observer struct {
	counters   []*Counter
	counterIdx map[string]int
	hists      []*Histogram
	histIdx    map[string]int
	samples    []*sample
	sampleIdx  map[string]int
	tracer     *Tracer
}

// NewObserver returns an observer with no instruments and no tracer.
func NewObserver() *Observer {
	return &Observer{
		counterIdx: make(map[string]int),
		histIdx:    make(map[string]int),
		sampleIdx:  make(map[string]int),
	}
}

// WithTracer attaches a preallocated ring-buffer tracer (see NewTracer) and
// returns the observer for chaining.
func (o *Observer) WithTracer(capacity int) *Observer {
	if o != nil {
		o.tracer = NewTracer(capacity)
	}
	return o
}

// Tracer returns the attached tracer, or nil.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Counter returns the semantic counter with the given name, creating it on
// first use. Repeated calls with one name return the same counter, so
// sequential platforms sharing an observer accumulate into it. Returns nil
// on a nil observer.
func (o *Observer) Counter(name string) *Counter {
	return o.counter(name, Semantic)
}

// DiagnosticCounter is Counter for scheduler-dependent event counts; the
// result is excluded from Snapshot() (see Class).
func (o *Observer) DiagnosticCounter(name string) *Counter {
	return o.counter(name, Diagnostic)
}

func (o *Observer) counter(name string, class Class) *Counter {
	if o == nil {
		return nil
	}
	if i, ok := o.counterIdx[name]; ok {
		return o.counters[i]
	}
	c := &Counter{name: name, class: class}
	o.counterIdx[name] = len(o.counters)
	o.counters = append(o.counters, c)
	return c
}

// Histogram returns the semantic histogram with the given name, creating it
// on first use. Returns nil on a nil observer.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	if i, ok := o.histIdx[name]; ok {
		return o.hists[i]
	}
	h := &Histogram{name: name, class: Semantic}
	o.histIdx[name] = len(o.hists)
	o.hists = append(o.hists, h)
	return h
}

// Sample registers a deferred gauge evaluated at snapshot time. If name is
// already registered, the previous fn's current value is folded into a
// baseline first, so a fresh component replacing an old one (new platform,
// same observer) reports the sum of both. No-op on a nil observer.
func (o *Observer) Sample(name string, class Class, fn func() uint64) {
	if o == nil || fn == nil {
		return
	}
	if i, ok := o.sampleIdx[name]; ok {
		s := o.samples[i]
		s.base = s.value()
		s.fn = fn
		return
	}
	o.sampleIdx[name] = len(o.samples)
	o.samples = append(o.samples, &sample{name: name, class: class, fn: fn})
}

// Snapshot captures the current value of every Semantic instrument. The
// result is byte-identical (via Snapshot.Encode) across worker counts and
// schedulers, and is the form embedded in exp artifacts. Returns nil on a
// nil observer.
func (o *Observer) Snapshot() *Snapshot { return o.snapshot(false) }

// SnapshotAll captures every instrument including Diagnostic ones. Use for
// single-run reports where scheduler internals are interesting.
func (o *Observer) SnapshotAll() *Snapshot { return o.snapshot(true) }

func (o *Observer) snapshot(diagnostics bool) *Snapshot {
	if o == nil {
		return nil
	}
	s := NewSnapshot()
	for _, c := range o.counters {
		if c.v == 0 || (c.class == Diagnostic && !diagnostics) {
			continue
		}
		s.Counters[c.name] = c.v
	}
	for _, sm := range o.samples {
		if sm.class == Diagnostic && !diagnostics {
			continue
		}
		if v := sm.value(); v != 0 {
			s.Counters[sm.name] = v
		}
	}
	for _, h := range o.hists {
		if h.n == 0 || (h.class == Diagnostic && !diagnostics) {
			continue
		}
		hs := HistogramSnapshot{Count: h.n, Sum: h.sum, Min: h.min, Max: h.max}
		for b, n := range h.counts {
			if n == 0 {
				continue
			}
			lo, hi := int64(0), int64(0)
			if b > 0 {
				lo = int64(1) << (b - 1)
				hi = lo<<1 - 1
			}
			hs.Buckets = append(hs.Buckets, HistBucket{Lo: lo, Hi: hi, Count: n})
		}
		s.Histograms[h.name] = hs
	}
	return s
}

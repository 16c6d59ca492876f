package main

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference machine is shared with other tenants, and their load slows
// the simulator by up to 1.8× in periods lasting from a fraction of a second
// to minutes: one trial of a fixed seed, run again and again in one process,
// alternates between about 40 and about 70 ms. So wall-clock times of runs
// made minutes apart spread by 15–30 %, whatever the run length.
//
// The executors therefore time a fixed reference loop between ops, and the
// end-to-end times are reported in ref-ms: each op's wall time divided by
// the wall time of one ref-ms of that loop in the samples taken around the
// op. This takes most of the host's drift out. The loop shares no code with
// the program, so a change to the program does not move it, and it works in
// a 32 KB table it warms first, so what the op before it left in the caches
// does not move it either. It slows in the host's slow periods by as much as
// a trial does; a register-only loop slowed less. It runs on an executor
// right after an op: a sampler goroutine of its own waits behind the
// simulator's goroutines for a processor, and its samples then track
// scheduling, not the host. And the samples must be local in time: one
// median over the whole pass leaves most of the drift in, because the host
// changes speed many times within a run.
const (
	// refItersPerMS is one ref-ms of the reference loop: about 1 ms on the
	// reference machine in a quiet period.
	refItersPerMS = 300_000
	// refWarmIters warms the loop's table before a timed sample.
	refWarmIters = 20_000
	// refSampleMS is the length of one sample, in ref-ms.
	refSampleMS = 2
	// refInterval spaces the samples: about 3 % of one executor's time.
	refInterval = 50 * time.Millisecond
	// refWindowS widens an interval by this many seconds on each side when
	// picking the samples that give the host's speed over it.
	refWindowS = 0.1
)

// refSink keeps the compiler from discarding the loop's work.
var refSink atomic.Uint64

// refTableLen is the loop's table: 32 KB, which fits the L1 data cache.
const refTableLen = 4096

// refLoop runs n iterations of two independent xorshift chains, each
// iteration adding to and xoring into a table entry the chains pick.
func refLoop(tbl *[refTableLen]uint64, n int) {
	a, b := uint64(1), uint64(2)
	for i := 0; i < n; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		tbl[a%refTableLen] += b
		tbl[b%refTableLen] ^= a
	}
}

// refMSPer times one sample of the reference loop and returns its wall
// time per ref-ms.
func refMSPer() float64 {
	var tbl [refTableLen]uint64
	refLoop(&tbl, refWarmIters)
	start := time.Now()
	refLoop(&tbl, refSampleMS*refItersPerMS)
	d := time.Since(start)
	refSink.Add(tbl[0])
	return ms(d) / refSampleMS
}

// refSample is one timing of the reference loop.
type refSample struct {
	at    time.Time
	msPer float64 // wall ms per ref-ms
}

// refProbe collects the reference samples of one timed pass.
type refProbe struct {
	mu      sync.Mutex
	next    time.Time // when the next sample is due
	samples []refSample
}

// after is called by an executor when it finishes an op. It takes a sample
// if one is due, so samples come at most every refInterval, whichever
// executor takes them, and reports whether it took one.
func (r *refProbe) after() bool {
	now := time.Now()
	r.mu.Lock()
	due := !now.Before(r.next)
	if due {
		r.next = now.Add(refInterval)
	}
	r.mu.Unlock()
	if !due {
		return false
	}
	s := refSample{time.Now(), refMSPer()}
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
	return true
}

// hostSpeed is a pass's reference samples in time order, in seconds since
// the pass began.
type hostSpeed struct {
	at, msPer []float64
}

func (r *refProbe) speed(origin time.Time) hostSpeed {
	r.mu.Lock()
	s := slices.Clone(r.samples)
	r.mu.Unlock()
	slices.SortFunc(s, func(a, b refSample) int { return a.at.Compare(b.at) })
	var h hostSpeed
	for _, x := range s {
		h.at = append(h.at, x.at.Sub(origin).Seconds())
		h.msPer = append(h.msPer, x.msPer)
	}
	return h
}

// median is the median wall time of one ref-ms over the whole pass.
func (h hostSpeed) median() float64 { return percentile(h.msPer, 50) }

// around is the wall time of one ref-ms over [from, to], in seconds since the
// pass began: the median of the samples taken within refWindowS of it, or
// the nearest sample when none was.
func (h hostSpeed) around(from, to float64) float64 {
	a := sort.SearchFloat64s(h.at, from-refWindowS)
	b := sort.SearchFloat64s(h.at, to+refWindowS)
	if a < b {
		return percentile(h.msPer[a:b], 50)
	}
	switch {
	case len(h.at) == 0:
		return 0
	case a == len(h.at):
		return h.msPer[a-1]
	case a == 0 || h.at[a]-to < from-h.at[a-1]:
		return h.msPer[a]
	}
	return h.msPer[a-1]
}

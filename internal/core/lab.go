package core

import (
	"meecc/internal/enclave"
	"meecc/internal/obs"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// Options selects the machine an experiment runs on. The zero value (plus a
// seed) is the paper's testbed; the other fields exist for ablations.
type Options struct {
	// Seed drives every random choice in the run; equal seeds reproduce
	// runs bit-for-bit.
	Seed uint64
	// EPCMode controls physical contiguity of enclave pages
	// (sequential / chunked / shuffled).
	EPCMode enclave.AllocMode
	// MEEPolicy overrides the MEE cache replacement policy by name
	// ("tree-plru" if empty; "lru", "bit-plru", "fifo", "random").
	MEEPolicy string
	// RandomEvictProb enables the MEE noise-injection mitigation.
	RandomEvictProb float64
	// SpikeProb/SpikeMax override ambient interference when non-negative
	// (pass -1 to keep platform defaults).
	SpikeProb float64
	SpikeMax  float64
	// MEESets/MEEWays override the MEE cache geometry when positive
	// (organization ablations).
	MEESets int
	MEEWays int
	// Obs, when non-nil, collects metrics (and timeline events if a tracer
	// is attached) from every platform the experiment boots. Nil disables
	// all instrumentation.
	Obs *obs.Observer
}

// platformConfig expands Options into a full machine configuration.
func (o Options) platformConfig() platform.Config {
	cfg := platform.DefaultConfig(o.Seed)
	cfg.EPCMode = o.EPCMode
	cfg.MEEPolicyName = o.MEEPolicy
	cfg.MEE.RandomEvictProb = o.RandomEvictProb
	if o.SpikeProb >= 0 {
		cfg.SpikeProb = o.SpikeProb
	}
	if o.SpikeMax > 0 {
		cfg.SpikeMax = o.SpikeMax
	}
	if o.MEESets > 0 {
		cfg.MEE.CacheSets = o.MEESets
	}
	if o.MEEWays > 0 {
		cfg.MEE.CacheWays = o.MEEWays
	}
	cfg.Obs = o.Obs
	return cfg
}

// DefaultOptions returns the paper-testbed options for a seed.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, SpikeProb: -1}
}

// boot builds the platform for these options.
func (o Options) boot() *platform.Platform {
	return platform.New(o.platformConfig())
}

// ---------------------------------------------------------------------------
// In-enclave measurement primitives (Section 3, Figure 2(c)).

// timedAccess measures one access to va using the hyperthread timer: read
// timer, access, read timer, subtract the known read overhead. The result is
// the access latency up to the timer's quantization — exactly what enclave
// code can observe on SGX1.
func timedAccess(th *platform.Thread, va enclave.VAddr) sim.Cycles {
	t1 := th.TimerNow()
	th.Access(va)
	t2 := th.TimerNow()
	return t2 - t1 - sim.Cycles(enclave.TimerReadCycles)
}

// pageAddrs returns the virtual addresses of `pages` consecutive enclave
// pages starting at base, each offset by `index512` 512-byte units — the
// "same index in consecutive versions data region" agreement from §5.3.
func pageAddrs(base enclave.VAddr, pages, index512 int) []enclave.VAddr {
	out := make([]enclave.VAddr, pages)
	for i := range out {
		out[i] = base + enclave.VAddr(i*enclave.PageBytes+index512*512)
	}
	return out
}

// prime accesses and flushes every address: versions lines loaded into the
// MEE cache, data lines kept out of the CPU caches.
func prime(th *platform.Thread, set []enclave.VAddr) {
	for _, a := range set {
		th.Access(a)
		th.Flush(a)
	}
}

// calibrateThreshold derives the hit/miss decision threshold the way real
// attack code does: sample versions-hit latency (repeated flushed access to
// one line) and versions-miss latency (first touch of fresh 512 B blocks,
// which hit at L0), then take the midpoint of the two means.
//
// The pool must be fresh pages not used by the experiment proper.
func calibrateThreshold(th *platform.Thread, pool []enclave.VAddr) sim.Cycles {
	const samples = 40
	probe := pool[0]
	th.Access(probe)
	th.Flush(probe)
	var hitSum sim.Cycles
	for i := 0; i < samples; i++ {
		hitSum += timedAccess(th, probe)
		th.Flush(probe)
	}
	var missSum sim.Cycles
	n := 0
	for _, page := range pool[1:] {
		// Touch the page's first block to warm its L0 line, then measure
		// the first touch of the remaining blocks: versions miss, L0 hit.
		th.Access(page)
		th.Flush(page)
		for b := 1; b < 8 && n < samples; b++ {
			missSum += timedAccess(th, page+enclave.VAddr(b*512))
			th.Flush(page + enclave.VAddr(b*512))
			n++
		}
		if n >= samples {
			break
		}
	}
	hit := hitSum / samples
	miss := missSum / sim.Cycles(n)
	return (hit + miss) / 2
}

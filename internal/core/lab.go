package core

import (
	"meecc/internal/cache"
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
	// MEEPolicy overrides the MEE cache replacement policy by name: true
	// LRU ("lru") if empty; "tree-plru", "bit-plru", "fifo", "random",
	// "nru" or "srrip" otherwise. CheckMEEPolicy validates a name.
	MEEPolicy string
	// RandomEvictProb enables the MEE noise-injection mitigation.
	RandomEvictProb float64
	// MEEWays overrides the MEE cache associativity when positive (the
	// mitigation study's half-ways variant).
	MEEWays int
	// Obs, when non-nil, collects metrics (and timeline events if a tracer
	// is attached) from every platform the experiment boots. Nil disables
	// all instrumentation.
	Obs *obs.Observer
}

// CheckMEEPolicy reports whether name can be Options.MEEPolicy: empty, or a
// name cache.PolicyByName recognizes. Booting a machine with any other name
// panics, so input surfaces check it first.
func CheckMEEPolicy(name string) error {
	if name == "" {
		return nil
	}
	return cache.CheckPolicyName(name)
}

// platformConfig expands Options into a full machine configuration.
func (o Options) platformConfig() platform.Config {
	cfg := platform.DefaultConfig(o.Seed)
	cfg.EPCMode = o.EPCMode
	cfg.MEEPolicyName = o.MEEPolicy
	cfg.MEE.RandomEvictProb = o.RandomEvictProb
	if o.MEEWays > 0 {
		cfg.MEE.CacheWays = o.MEEWays
	}
	cfg.Obs = o.Obs
	return cfg
}

// DefaultOptions returns the paper-testbed options for a seed.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed}
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

// evictPass is the trojan's eviction pass over its eviction set (§5.3): a
// forward access+flush sweep and, when twoPhase, a backward one, each
// fenced. Under approximate-LRU replacement the backward sweep catches the
// ways the forward one left behind.
func evictPass(th *platform.Thread, set []enclave.VAddr, twoPhase bool) {
	for _, a := range set {
		th.Access(a)
		th.Flush(a)
	}
	th.Mfence()
	if twoPhase {
		for i := len(set) - 1; i >= 0; i-- {
			th.Access(set[i])
			th.Flush(set[i])
		}
		th.Mfence()
	}
}

// burstUntil repeats the eviction pass until deadline: the search-phase
// signal that the other side's findConflict locks onto.
func burstUntil(th *platform.Thread, set []enclave.VAddr, twoPhase bool, deadline sim.Cycles) {
	for th.Now() < deadline {
		evictPass(th, set, twoPhase)
		th.Spin(1000)
	}
}

// findConflict scores each candidate against the other side's bursts: load
// and flush it, wait gap cycles, and count a timed re-access above
// threshold as an eviction. It returns the first best-scoring candidate
// and its score out of samples.
func findConflict(th *platform.Thread, cands []enclave.VAddr, threshold sim.Cycles, samples int, gap sim.Cycles) (enclave.VAddr, int) {
	best, bestScore := enclave.VAddr(0), -1
	for _, cand := range cands {
		score := 0
		for i := 0; i < samples; i++ {
			th.Access(cand)
			th.Flush(cand)
			th.SpinUntil(th.Now() + gap)
			if timedAccess(th, cand) > threshold {
				score++
			}
			th.Flush(cand)
		}
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best, bestScore
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

package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// EvictionTest is the primitive from Algorithm 1 (lines 1–11): load the
// victim's versions line into the MEE cache (flushing the data from the CPU
// caches), access every address of the set the same way, then measure how
// long re-accessing the victim takes. If the set's versions data displaced
// the victim's, the measured time shows a versions miss.
func EvictionTest(th *platform.Thread, set []enclave.VAddr, victim enclave.VAddr) sim.Cycles {
	th.AccessFlush(victim)
	th.Mfence()
	for _, a := range set {
		th.AccessFlush(a)
	}
	th.Mfence()
	t := timedAccess(th, victim)
	th.Flush(victim)
	return t
}

// evictedBy majority-votes reps EvictionTests against the threshold. The
// repetition absorbs tree-PLRU nondeterminism and ambient noise; the paper's
// algorithm runs on identical measurements.
func evictedBy(th *platform.Thread, set []enclave.VAddr, victim enclave.VAddr, threshold sim.Cycles, reps int) bool {
	miss := 0
	for i := 0; i < reps; i++ {
		if EvictionTest(th, set, victim) > threshold {
			miss++
		}
	}
	return miss*2 > reps
}

// Algorithm1Result is the output of eviction-address-set discovery.
type Algorithm1Result struct {
	// IndexSet is the set of candidate addresses whose versions data loads
	// without being evicted by the others (Algorithm 1 lines 13–17).
	IndexSet []enclave.VAddr
	// Test is the probe address used to isolate the eviction set.
	Test enclave.VAddr
	// EvictionSet is the final set of addresses whose versions data share
	// one MEE cache set; its size is the cache associativity.
	EvictionSet []enclave.VAddr
}

// Associativity returns the reverse-engineered number of MEE cache ways.
func (r *Algorithm1Result) Associativity() int { return len(r.EvictionSet) }

// FindEvictionSet implements Algorithm 1 of the paper. candidates must be
// virtual addresses with 4 KB stride inside the protected data region (the
// candidate address set); threshold separates versions hits from misses
// (see calibrateThreshold). It returns the discovered eviction address set.
//
// The candidate set must be large enough to contain a full eviction set —
// the paper uses at least 64 addresses.
func FindEvictionSet(th *platform.Thread, candidates []enclave.VAddr, threshold sim.Cycles) (*Algorithm1Result, error) {
	const reps = 5
	res := &Algorithm1Result{}

	// Lines 13–17: keep candidates whose versions data still hits after
	// accessing everything collected so far.
	for _, cand := range candidates {
		if !evictedBy(th, res.IndexSet, cand, threshold, reps) {
			res.IndexSet = append(res.IndexSet, cand)
		}
	}

	inIndex := make(map[enclave.VAddr]bool, len(res.IndexSet))
	for _, a := range res.IndexSet {
		inIndex[a] = true
	}

	// Lines 18–23: find a test address (outside the index set) that the
	// index set reliably evicts.
	found := false
	for _, cand := range candidates {
		if inIndex[cand] {
			continue
		}
		prime(th, res.IndexSet)
		th.Mfence()
		if evictedBy(th, res.IndexSet, cand, threshold, reps) {
			res.Test = cand
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("core: no test address found — candidate set of %d too small to overflow a set", len(candidates))
	}

	// Lines 24–32: remove index-set members one at a time; if the test
	// address survives, the removed member shares its set.
	for _, target := range res.IndexSet {
		reduced := make([]enclave.VAddr, 0, len(res.IndexSet)-1)
		for _, a := range res.IndexSet {
			if a != target {
				reduced = append(reduced, a)
			}
		}
		prime(th, res.IndexSet)
		th.Mfence()
		if !evictedBy(th, reduced, res.Test, threshold, reps) {
			res.EvictionSet = append(res.EvictionSet, target)
		}
	}
	if len(res.EvictionSet) == 0 {
		return nil, fmt.Errorf("core: eviction set extraction failed (index set %d)", len(res.IndexSet))
	}
	return res, nil
}

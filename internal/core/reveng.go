package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/itree"
	"meecc/internal/platform"
)

// CapacityPoint is one point of Figure 4: the probability (over trials)
// that a victim's versions line is evicted after accessing a candidate
// address set of the given size.
type CapacityPoint struct {
	Candidates  int
	Probability float64
}

// CapacityResult is the output of the §4.1 capacity experiment.
type CapacityResult struct {
	Points []CapacityPoint
	// CapacityBytes is the inferred MEE cache capacity: the smallest
	// candidate count with eviction probability 1.0, times the 1 KB of
	// versions+PD_Tag metadata each 4 KB page pins (16 × 64 B).
	CapacityBytes int
}

// MeasureCapacity runs the §4.1 experiment: for each candidate-set size,
// repeatedly pick a fresh victim, load its versions line, access the whole
// candidate set (4 KB stride), and test whether the victim was evicted.
func MeasureCapacity(opts Options, sizes []int, trials int) (*CapacityResult, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 16, 32, 64}
	}
	maxN := 0
	for _, n := range sizes {
		if n > maxN {
			maxN = n
		}
	}
	plat := opts.boot()
	defer plat.Close()

	pr := plat.NewProcess("reveng")
	// Pool: fresh pages per trial (victim + maxN candidates), plus a
	// calibration pool.
	perTrial := maxN + 1
	need := calPages + trials*perTrial
	if _, err := pr.CreateEnclave(need); err != nil {
		return nil, err
	}
	base := pr.Enclave().Base

	res := &CapacityResult{}
	plat.SpawnThread("reveng", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, 0))
		pool := base + enclave.VAddr(calPages*enclave.PageBytes)

		for _, n := range sizes {
			evictions := 0
			for trial := 0; trial < trials; trial++ {
				// Disjoint region per trial; the MEE cache is drained
				// between trials so that residue from earlier sizes cannot
				// turn candidate fills into hits (the paper achieves the
				// same cold state by thrashing on real hardware).
				plat.MEE().FlushCache(th.Now(), plat.Engine().Rand())
				region := pool + enclave.VAddr(trial*perTrial*enclave.PageBytes)
				victim := region
				cands := pageAddrs(region+enclave.PageBytes, n, 0)
				if EvictionTest(th, cands, victim) > threshold {
					evictions++
				}
			}
			res.Points = append(res.Points, CapacityPoint{
				Candidates:  n,
				Probability: float64(evictions) / float64(trials),
			})
		}
	})
	plat.Run(-1)

	// Infer capacity: the smallest size reaching probability 1.0.
	for _, p := range res.Points {
		if p.Probability >= 0.995 {
			res.CapacityBytes = p.Candidates * 16 * 64
			break
		}
	}
	return res, nil
}

// Organization is the reverse-engineered MEE cache configuration (§4's
// summary result: 64 KB, 8-way, 128 sets).
type Organization struct {
	CapacityBytes int
	Ways          int
	Sets          int
	LineBytes     int
}

func (o Organization) String() string {
	return fmt.Sprintf("%d KB, %d-way set-associative, %d sets of %d B lines",
		o.CapacityBytes/1024, o.Ways, o.Sets, o.LineBytes)
}

// ReverseEngineer runs the full §4 procedure: the capacity experiment, then
// Algorithm 1 for the associativity, and derives the set count.
// examples/reverse-engineer prints what it finds, and cmd/figures -fig 4
// renders the capacity experiment.
func ReverseEngineer(opts Options, trials int) (*Organization, *CapacityResult, *Algorithm1Result, error) {
	capRes, err := MeasureCapacity(opts, nil, trials)
	if err != nil {
		return nil, nil, nil, err
	}
	if capRes.CapacityBytes == 0 {
		return nil, capRes, nil, fmt.Errorf("core: capacity experiment never reached eviction probability 1.0")
	}

	// Associativity on a fresh platform (cold MEE state).
	plat := opts.boot()
	defer plat.Close()
	pr := plat.NewProcess("reveng")
	if _, err := pr.CreateEnclave(calPages + evSetCandidates); err != nil {
		return nil, capRes, nil, err
	}
	base := pr.Enclave().Base
	var a1 *Algorithm1Result
	var a1Err error
	plat.SpawnThread("reveng", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, 0))
		cands := pageAddrs(base+enclave.VAddr(calPages*enclave.PageBytes), evSetCandidates, 0)
		a1, a1Err = FindEvictionSet(th, cands, threshold)
	})
	plat.Run(-1)
	if a1Err != nil {
		return nil, capRes, nil, a1Err
	}

	org := &Organization{
		CapacityBytes: capRes.CapacityBytes,
		Ways:          a1.Associativity(),
		LineBytes:     itree.LineSize,
	}
	org.Sets = org.CapacityBytes / org.LineBytes / org.Ways
	return org, capRes, a1, nil
}

package core

import (
	"fmt"

	"meecc/internal/cache"
	"meecc/internal/enclave"
	"meecc/internal/platform"
)

// EvictionStudyResult reports how reliably the trojan's eviction procedure
// displaces a monitor line from the shared MEE cache set — the mechanism
// underneath Algorithm 2, isolated from the rest of the protocol. This is
// the quantitative backing for §5.3's design choice of a two-phase
// (forward+backward) eviction pass under approximate-LRU replacement.
type EvictionStudyResult struct {
	Policy    string
	TwoPhase  bool
	Windows   int
	Successes int
}

// SuccessRate is the fraction of windows whose eviction displaced the
// monitor line.
func (r EvictionStudyResult) SuccessRate() float64 {
	if r.Windows == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Windows)
}

// EvictionStudy measures per-window eviction success for a given MEE
// replacement policy and phase count. A single enclave builds an eviction
// set with Algorithm 1, uses the discovered test address as the monitor,
// and then replays the channel's steady-state set dynamics: touch monitor
// (the spy's probe), run the eviction pass, and check (via the harness's
// ground truth) whether the monitor's versions line left the MEE cache.
func EvictionStudy(opts Options, policy string, twoPhase bool, windows int) (*EvictionStudyResult, error) {
	opts.MEEPolicy = policy
	plat := opts.boot()
	defer plat.Close()

	pr := plat.NewProcess("evstudy")
	if _, err := pr.CreateEnclave(calPages + evSetCandidates); err != nil {
		return nil, err
	}
	base := pr.Enclave().Base

	res := &EvictionStudyResult{Policy: policy, TwoPhase: twoPhase, Windows: windows}
	var runErr error
	plat.SpawnThread("evstudy", pr, 0, func(th *platform.Thread) {
		th.EnterEnclave()
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, 0))
		cands := pageAddrs(base+enclave.VAddr(calPages*enclave.PageBytes), evSetCandidates, 0)
		a1, err := FindEvictionSet(th, cands, threshold)
		if err != nil {
			runErr = err
			return
		}
		if len(a1.EvictionSet) < 2 {
			runErr = fmt.Errorf("core: eviction set too small (%d)", len(a1.EvictionSet))
			return
		}
		monitor := a1.Test
		evSet := a1.EvictionSet

		// Ground-truth monitor residency via the harness.
		pa, _ := pr.Translate(monitor)
		meeEng := plat.MEE()
		vline := meeEng.Geometry().VersionLineAddr(pa)
		set := meeEng.CacheSetFor(vline)
		vtag := cache.Tag(uint64(vline) / 64)

		for w := 0; w < windows; w++ {
			// Spy side: touch (and, if missing, re-prime) the monitor.
			th.Access(monitor)
			th.Flush(monitor)
			th.Spin(2000)
			// Trojan side: the eviction pass(es).
			evictPass(th, evSet, twoPhase)
			if !meeEng.Cache().Contains(set, vtag) {
				res.Successes++
			}
			th.Spin(3000)
		}
	})
	plat.Run(-1)
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// PrimeProbeResult reports the §5.2 baseline experiment (Figure 6a): the
// classic Prime+Probe roles applied to the MEE cache, which the paper shows
// cannot sustain communication because probing the whole 8-way set costs
// eight main-memory accesses (>3500 cycles) against a ~300-cycle signal.
type PrimeProbeResult struct {
	Sent       []byte
	Received   []byte
	ProbeTimes []sim.Cycles // per-window total probe latency (the Fig. 6a trace)
	Threshold  sim.Cycles
	BitErrors  int
	ErrorRate  float64
}

// RunPrimeProbe executes the baseline: the spy owns the eviction set and
// probes all of it every window; the trojan signals '1' by touching a single
// conflicting address. Setup mirrors RunChannel with the roles reversed.
func RunPrimeProbe(cfg ChannelConfig) (*PrimeProbeResult, error) {
	cfg.applyDefaults()
	plat := cfg.boot()
	defer plat.Close()

	tCalEnd := cfg.CalBudget
	tSetupEnd := tCalEnd + cfg.SetupBudget
	tSearchEnd := tSetupEnd + cfg.SearchBudget
	t0 := tSearchEnd
	tEnd := t0 + sim.Cycles(len(cfg.Bits))*cfg.Window

	spyProc := plat.NewProcess("pp-spy")
	trojanProc := plat.NewProcess("pp-trojan")
	const calPages = 8
	const spyCandidates = 96
	const trojanCandidates = 24
	if _, err := spyProc.CreateEnclave(calPages + spyCandidates); err != nil {
		return nil, err
	}
	if _, err := trojanProc.CreateEnclave(calPages + trojanCandidates); err != nil {
		return nil, err
	}

	res := &PrimeProbeResult{Sent: cfg.Bits}
	var spyErr, trojanErr error
	var evSet []enclave.VAddr

	// Spy: builds and owns the eviction set; probes all ways per window.
	plat.SpawnThread("pp-spy", spyProc, cfg.SpyCore, func(th *platform.Thread) {
		th.EnterEnclave()
		base := spyProc.Enclave().Base
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, cfg.Index512))
		th.SpinUntil(tCalEnd)

		cands := pageAddrs(base+enclave.VAddr(calPages*enclave.PageBytes), spyCandidates, cfg.Index512)
		a1, err := FindEvictionSet(th, cands, threshold)
		if err != nil {
			spyErr = err
			return
		}
		evSet = a1.EvictionSet
		if th.Now() > tSetupEnd {
			spyErr = fmt.Errorf("core: prime+probe spy setup overran (%d > %d)", th.Now(), tSetupEnd)
			return
		}
		th.SpinUntil(tSetupEnd)

		// Search phase: keep the set primed so the trojan can find a
		// conflicting address.
		for th.Now() < tSearchEnd-20_000 {
			prime(th, evSet)
			th.Spin(500)
		}

		// Baseline for the probe-total threshold: all-hit probes.
		var baseSum sim.Cycles
		const baseSamples = 10
		for s := 0; s < baseSamples; s++ {
			baseSum += probeAll(th, evSet)
		}
		// One evicted way costs roughly one extra DRAM access (~270);
		// split the difference.
		res.Threshold = baseSum/baseSamples + 135

		res.Received = make([]byte, len(cfg.Bits))
		res.ProbeTimes = make([]sim.Cycles, len(cfg.Bits))
		probeOffset := sim.Cycles(float64(cfg.Window) * cfg.ProbePhase)
		for i := range cfg.Bits {
			th.WaitTimer(t0 + sim.Cycles(i)*cfg.Window + probeOffset)
			t := probeAll(th, evSet)
			res.ProbeTimes[i] = t
			if t > res.Threshold {
				res.Received[i] = 1
			}
		}
	})

	// Trojan: finds one address conflicting with the spy's set, then sends
	// bits by touching it.
	plat.SpawnThread("pp-trojan", trojanProc, cfg.TrojanCore, func(th *platform.Thread) {
		th.EnterEnclave()
		base := trojanProc.Enclave().Base
		th.SpinUntil(tCalEnd / 2) // staggered against the spy's calibration
		threshold := calibrateThreshold(th, pageAddrs(base, calPages, cfg.Index512))
		th.SpinUntil(tSetupEnd)

		cands := pageAddrs(base+enclave.VAddr(calPages*enclave.PageBytes), trojanCandidates, cfg.Index512)
		const samples = 6
		bestScore, conflict := -1, enclave.VAddr(0)
		for _, cand := range cands {
			score := 0
			for s := 0; s < samples; s++ {
				th.Access(cand)
				th.Flush(cand)
				th.SpinUntil(th.Now() + 30_000)
				if timedAccess(th, cand) > threshold {
					score++
				}
				th.Flush(cand)
			}
			if score > bestScore {
				bestScore, conflict = score, cand
			}
		}
		if bestScore < samples-2 {
			trojanErr = fmt.Errorf("core: prime+probe trojan found no conflicting address (best %d/%d)", bestScore, samples)
			return
		}
		if th.Now() > t0 {
			trojanErr = fmt.Errorf("core: prime+probe trojan search overran (%d > %d)", th.Now(), t0)
			return
		}

		for i, bit := range cfg.Bits {
			th.WaitTimer(t0 + sim.Cycles(i)*cfg.Window)
			if bit == 1 {
				th.Access(conflict)
				th.Flush(conflict)
			}
		}
	})

	plat.Run(tEnd + cfg.Window)
	if spyErr != nil {
		return res, spyErr
	}
	if trojanErr != nil {
		return res, trojanErr
	}
	if res.Received == nil {
		return res, fmt.Errorf("core: prime+probe spy never completed")
	}
	for i := range cfg.Bits {
		if res.Received[i] != cfg.Bits[i] {
			res.BitErrors++
		}
	}
	res.ErrorRate = float64(res.BitErrors) / float64(len(cfg.Bits))
	return res, nil
}

// probeAll measures the total time to access (and flush) every way of the
// eviction set — the paper's point is that this total exceeds 3500 cycles,
// drowning the ~300-cycle single-way signal.
func probeAll(th *platform.Thread, set []enclave.VAddr) sim.Cycles {
	t1 := th.TimerNow()
	for _, a := range set {
		th.Access(a)
	}
	t2 := th.TimerNow()
	for _, a := range set {
		th.Flush(a)
	}
	return t2 - t1 - enclave.TimerReadCycles
}

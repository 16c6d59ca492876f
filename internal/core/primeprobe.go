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

// RunPrimeProbe executes the baseline: the channel session with its roles
// swapped. The spy owns the eviction set and probes all of it every
// window; the trojan signals '1' by touching the one address it found
// conflicting with the set. Each bit is one window, so a cfg with a
// Repetition above 1 is refused with an error.
func RunPrimeProbe(cfg ChannelConfig) (*PrimeProbeResult, error) {
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	if cfg.Repetition > 1 {
		return nil, errIgnored("the Prime+Probe baseline", "Repetition")
	}
	s, plat, err := startChannel(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer plat.Close()
	cfg = s.cfg
	res := &PrimeProbeResult{Sent: cfg.Bits}

	// Spy: the session's owner role. It builds the eviction set, keeps it
	// primed through the search phase so the trojan can find a conflicting
	// address, then probes all ways per window.
	spyTh := plat.SpawnThread("pp-spy", s.trojanProc, trojanCore, func(th *platform.Thread) {
		if !s.ownerWarm(th) {
			return
		}
		for th.Now() < s.t0-20_000 {
			prime(th, s.evSet)
			th.Spin(500)
		}

		// Baseline for the probe-total threshold: all-hit probes.
		var baseSum sim.Cycles
		const baseSamples = 10
		for i := 0; i < baseSamples; i++ {
			baseSum += probeAll(th, s.evSet)
		}
		// One evicted way costs roughly one extra DRAM access (~270);
		// split the difference.
		res.Threshold = baseSum/baseSamples + 135

		res.Received = make([]byte, len(cfg.Bits))
		res.ProbeTimes = make([]sim.Cycles, len(cfg.Bits))
		probeOffset := sim.Cycles(float64(cfg.Window) * cfg.ProbePhase)
		for i := range cfg.Bits {
			th.WaitTimer(s.t0 + sim.Cycles(i)*cfg.Window + probeOffset)
			t := probeAll(th, s.evSet)
			res.ProbeTimes[i] = t
			if t > res.Threshold {
				res.Received[i] = 1
			}
		}
	})

	// Trojan: the session's finder role. It finds an address of its own
	// that the spy's primes keep evicting, then sends bits by touching it.
	trojanTh := plat.SpawnThread("pp-trojan", s.spyProc, spyCore, func(th *platform.Thread) {
		if !s.finderWarm(th, 6, 30_000, 4) {
			return
		}
		for i, bit := range cfg.Bits {
			th.WaitTimer(s.t0 + sim.Cycles(i)*cfg.Window)
			if bit == 1 {
				th.AccessFlush(s.monitor)
			}
		}
	})
	if _, err := s.environment(plat, spyTh, trojanTh, s.tEnd); err != nil {
		return nil, err
	}

	plat.Run(s.tEnd + cfg.Window)
	// The session's steps name the MEE channel's roles: its trojan is the
	// owner, here the spy, and its spy the finder, here the trojan.
	switch {
	case s.trojanErr != nil:
		return res, fmt.Errorf("core: prime+probe spy, as the session's owner: %w", s.trojanErr)
	case s.spyErr != nil:
		return res, fmt.Errorf("core: prime+probe trojan, as the session's finder: %w", s.spyErr)
	case res.Received == nil:
		return res, fmt.Errorf("core: prime+probe spy never completed")
	}
	wrong, rate := countErrors(cfg.Bits, res.Received)
	res.BitErrors, res.ErrorRate = len(wrong), rate
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

package core

import (
	"fmt"

	"meecc/internal/dram"
	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// LLCChannelResult reports a classic last-level-cache Prime+Probe covert
// channel run — the family of attacks (Liu et al. [7], Maurice et al. [9])
// the paper positions the MEE channel against. It runs entirely outside
// enclaves: hugepages and rdtsc are available, which is exactly what SGX
// takes away.
type LLCChannelResult struct {
	Sent       []byte
	Received   []byte
	ProbeTimes []sim.Cycles
	Threshold  sim.Cycles
	BitErrors  int
	ErrorRate  float64
	KBps       float64
	Footprint  *AttackFootprint
}

// AttackFootprint captures what a hardware-performance-counter detector
// would see during transmission: LLC conflict pressure and its
// concentration, plus MEE traffic.
type AttackFootprint struct {
	// LLCEvictions during transmission.
	LLCEvictions uint64
	// LLCHottestShare is the hottest single LLC set's share of all LLC
	// evictions — near 1.0 for a classic P+P channel (one set hammered),
	// near 0 for benign traffic and for the MEE channel.
	LLCHottestShare float64
	// MEEReads during transmission: protected-region accesses, the MEE
	// channel's (invisible-to-LLC-counters) medium.
	MEEReads uint64
}

// RunLLCChannel executes the LLC Prime+Probe covert channel: the spy owns
// a 16-way LLC eviction set built from hugepage arithmetic, the trojan
// signals '1' by touching one conflicting address. cfg.Window defaults to
// 5000 cycles here — LLC channels are faster than the MEE channel because
// probes hit on-chip. It arms no noise or fault campaign and sends each
// bit once, and returns an error for a cfg that sets Noise or Fault, or a
// Repetition above 1.
func RunLLCChannel(cfg ChannelConfig) (*LLCChannelResult, error) {
	if cfg.Window <= 0 {
		cfg.Window = 5000
	}
	cfg.applyDefaults()
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	// The LLC channel arms no environment: it refuses one rather than run
	// quiet under its name.
	switch {
	case cfg.Noise != NoiseNone:
		return nil, errIgnored("the LLC channel", "Noise")
	case cfg.Fault != nil:
		return nil, errIgnored("the LLC channel", "Fault")
	case cfg.Repetition > 1:
		return nil, errIgnored("the LLC channel", "Repetition")
	}
	plat := cfg.boot()
	defer plat.Close()

	llcWays := plat.Config().CPU.LLCWays
	// llcSpanBytes covers every LLC set once: addresses that far apart map
	// to one set (8192 sets × 64 B = 512 KB on the default platform).
	llcSpanBytes := plat.Config().CPU.LLCSets * dram.LineSize
	hugepagesNeeded := llcWays * llcSpanBytes / platform.HugepageBytes // 4 for 16 ways

	spyProc := plat.NewProcess("llc-spy")
	trojanProc := plat.NewProcess("llc-trojan")
	spyBuf := spyProc.AllocHugepages(hugepagesNeeded)
	trojanBuf := trojanProc.AllocHugepages(1)

	// Agreed LLC set: both sides derive addresses from the same offset
	// within their hugepages (the set index is fully determined by the
	// offset, since hugepages are 2 MB aligned).
	agreedOff := enclave.VAddr(agreedIndex * 512)
	evSet := make([]enclave.VAddr, 0, llcWays)
	for hp := 0; hp < hugepagesNeeded; hp++ {
		for k := 0; k < platform.HugepageBytes/llcSpanBytes; k++ {
			evSet = append(evSet, spyBuf+enclave.VAddr(hp*platform.HugepageBytes+k*llcSpanBytes)+agreedOff)
		}
	}
	conflict := trojanBuf + agreedOff

	t0 := sim.Cycles(1_000_000) // brief calibration phase only
	tEnd := t0 + sim.Cycles(len(cfg.Bits))*cfg.Window
	res := &LLCChannelResult{Sent: cfg.Bits}

	// Reset cache statistics right at transmission start so the footprint
	// reflects the channel itself, not setup.
	spawnStatsReset(plat, t0)

	plat.SpawnThread("llc-spy", spyProc, spyCore, func(th *platform.Thread) {
		probeAll := func() sim.Cycles {
			t1 := th.Rdtsc()
			for _, a := range evSet {
				th.Access(a)
			}
			t2 := th.Rdtsc()
			return t2 - t1
		}
		// Prime and calibrate the all-hit baseline.
		for i := 0; i < 3; i++ {
			probeAll()
		}
		var base sim.Cycles
		const samples = 10
		for i := 0; i < samples; i++ {
			base += probeAll()
		}
		// One evicted way costs one DRAM access (~250); split it.
		res.Threshold = base/samples + 125

		res.Received = make([]byte, len(cfg.Bits))
		res.ProbeTimes = make([]sim.Cycles, len(cfg.Bits))
		probeOffset := sim.Cycles(float64(cfg.Window) * cfg.ProbePhase)
		for i := range cfg.Bits {
			th.SpinUntil(t0 + sim.Cycles(i)*cfg.Window + probeOffset)
			t := probeAll()
			res.ProbeTimes[i] = t
			if t > res.Threshold {
				res.Received[i] = 1
			}
		}
	})

	plat.SpawnThread("llc-trojan", trojanProc, trojanCore, func(th *platform.Thread) {
		for i, bit := range cfg.Bits {
			th.SpinUntil(t0 + sim.Cycles(i)*cfg.Window)
			if bit == 1 {
				// The spy's next prime evicts this line again (inclusive
				// LLC back-invalidation), so no flush is needed.
				th.Access(conflict)
			}
		}
	})

	if cfg.onPlatform != nil {
		cfg.onPlatform(plat, t0, tEnd)
	}
	plat.Run(tEnd + cfg.Window)
	if res.Received == nil {
		return res, fmt.Errorf("core: LLC spy never completed")
	}
	wrong, rate := countErrors(cfg.Bits, res.Received)
	res.BitErrors, res.ErrorRate = len(wrong), rate
	res.KBps = plat.WindowKBps(cfg.Window)
	res.Footprint = captureFootprint(plat)
	return res, nil
}

// captureFootprint snapshots detector-visible statistics.
func captureFootprint(plat *platform.Platform) *AttackFootprint {
	llc := plat.Caches().LLC()
	st := llc.Stats()
	_, hottest := llc.MaxSetEvictions()
	share := 0.0
	if st.Evictions > 0 {
		share = float64(hottest) / float64(st.Evictions)
	}
	return &AttackFootprint{
		LLCEvictions:    st.Evictions,
		LLCHottestShare: share,
		MEEReads:        plat.MEE().Stats().Reads,
	}
}

package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/fault"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// ChannelConfig parameterizes one covert-channel run (Algorithm 2).
type ChannelConfig struct {
	Options

	// Window is Tsync, the per-bit timing window in cycles (the paper
	// sweeps 5000..30000; 15000 is its sweet spot).
	Window sim.Cycles
	// Bits is the bit sequence the trojan transmits (values 0/1).
	Bits []byte
	// Index512 is the agreed index: which 512-byte unit within a 4 KB page
	// both sides use (§5.3 — "any arbitrary index can be used").
	Index512 int
	// ProbePhase is the fraction of the window at which the spy probes;
	// late enough that the trojan's ~9000-cycle eviction has finished.
	ProbePhase float64
	// TwoPhaseEviction selects the paper's forward+backward eviction; false
	// degrades to a single forward pass (the ablation of §5.3's design
	// choice under approximate-LRU replacement).
	TwoPhaseEviction bool
	// Repetition transmits each payload bit this many consecutive windows
	// and majority-decodes on the spy side — a simple reliability layer on
	// top of the paper's raw channel ("without any error handling").
	// 0 or 1 means raw.
	Repetition int
	// Noise starts a background environment at transmission start.
	Noise NoiseKind
	// Fault, when non-nil, arms a deterministic chaos campaign on the run
	// (see internal/fault). The schedule derives from Fault.Seed alone;
	// Start/End default to the transmission interval when both are zero.
	Fault *fault.Config

	// Core placement (defaults: trojan 0, spy 2, noise 1 — distinct
	// physical cores, as in the paper's threat model).
	TrojanCore, SpyCore, NoiseCore int

	// Setup schedule (cycle budgets; defaults applied by RunChannel).
	CalBudget    sim.Cycles // both sides calibrate thresholds
	SetupBudget  sim.Cycles // trojan runs Algorithm 1
	SearchBudget sim.Cycles // spy locates its monitor address

	// onPlatform, when set (by in-package studies), is invoked after the
	// attack actors are spawned with the platform and the transmission
	// interval — e.g. to attach a detector.
	onPlatform func(plat *platform.Platform, t0, tEnd sim.Cycles)
}

// DefaultChannelConfig returns the paper's operating point: 15000-cycle
// window, alternating bits, two-phase eviction.
func DefaultChannelConfig(seed uint64) ChannelConfig {
	return ChannelConfig{
		Options:          DefaultOptions(seed),
		Window:           15000,
		Bits:             AlternatingBits(30),
		ProbePhase:       0.65,
		TwoPhaseEviction: true,
		TrojanCore:       0,
		SpyCore:          2,
		NoiseCore:        1,
	}
}

func (c *ChannelConfig) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 15000
	}
	if c.ProbePhase <= 0 || c.ProbePhase >= 1 {
		c.ProbePhase = 0.65
	}
	// Normalize core placement: the threat model puts trojan, spy, and
	// noise on three distinct physical cores. Resolve collisions
	// deterministically — spy hops two cores away, then noise takes the
	// lowest core distinct from both.
	if c.SpyCore == c.TrojanCore {
		c.SpyCore = (c.TrojanCore + 2) % 4
	}
	if c.NoiseCore == c.TrojanCore || c.NoiseCore == c.SpyCore {
		for core := 0; core < 4; core++ {
			if core != c.TrojanCore && core != c.SpyCore {
				c.NoiseCore = core
				break
			}
		}
	}
	if c.CalBudget <= 0 {
		c.CalBudget = 2_000_000
	}
	if c.SetupBudget <= 0 {
		c.SetupBudget = 60_000_000
	}
	if c.SearchBudget <= 0 {
		c.SearchBudget = 14_000_000
	}
}

// ChannelResult reports one covert-channel run.
type ChannelResult struct {
	Sent     []byte
	Received []byte
	// ProbeTimes are the spy's measured per-window probe latencies — the
	// traces plotted in Figures 6(b) and 8.
	ProbeTimes []sim.Cycles
	// ErrorBits marks windows decoded incorrectly.
	ErrorBits []int

	SpyThreshold    sim.Cycles
	EvictionSetSize int
	MonitorScore    int
	BitErrors       int
	ErrorRate       float64
	KBps            float64
	SetupCycles     sim.Cycles
	// Footprint is what a hardware-counter detector would see during the
	// transmission phase (setup excluded) — see the stealth study.
	Footprint *AttackFootprint
	// Faults is the applied-fault log when a chaos campaign was armed.
	Faults []fault.Injected
}

// AlternatingBits returns '0101...' of length n (Figure 6's sequence).
func AlternatingBits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i % 2)
	}
	return out
}

// PatternBits repeats the given pattern string of '0'/'1' to n bits
// (Figure 8 uses "100" repeated to 128 bits).
func PatternBits(pattern string, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = pattern[i%len(pattern)] - '0'
	}
	return out
}

// RandomBits returns n seeded random bits (used by the Figure 7 sweep).
func RandomBits(seed uint64, n int) []byte {
	s := seed*0x9e3779b97f4a7c15 + 1
	out := make([]byte, n)
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = byte(s >> 63)
	}
	return out
}

// Enclave layout shared by RunChannel and RunResilient: a calibration pool
// plus the candidate pages Algorithm 1 (trojan) and monitor discovery (spy)
// work over.
const (
	calPages         = 8
	trojanCandidates = 96
	spyCandidates    = 24
)

// channelSession carries the state shared between the warm phase
// (calibration, Algorithm 1 eviction-set construction, monitor discovery)
// and the transmit phase (Algorithm 2) of one covert-channel run.
// RunChannel drives both phases back to back in one pair of actors on a
// fresh platform; WarmChannel runs only the warm phase and snapshots the
// platform so many transmissions can fork from the same warm state.
type channelSession struct {
	cfg     ChannelConfig // defaults applied; Bits expanded by repetition
	logical []byte        // pre-expansion payload
	rep     int

	// Agreed schedule (both sides know these offsets out of band). The
	// warm phase ends strictly before t0 = tSearchEnd regardless of Window
	// or payload, which is what makes warm state shareable across them.
	tCalEnd, tSetupEnd, t0, tEnd sim.Cycles

	trojanProc, spyProc   *platform.Process
	trojanCands, spyCands []enclave.VAddr

	// Live working sets, filled in by the actors once discovered; fault
	// injection reads them (engine-serialized) to aim paging events at the
	// pages that actually carry the channel.
	liveEvictionSet, liveMonitor []enclave.VAddr

	// Warm products, consumed by the transmit phase.
	spyThreshold sim.Cycles
	evSet        []enclave.VAddr
	monitor      enclave.VAddr

	res               *ChannelResult
	trojanErr, spyErr error
}

// prepareChannel validates cfg, applies defaults, expands repetition
// coding, and computes the session schedule.
func prepareChannel(cfg ChannelConfig) (*channelSession, error) {
	cfg.applyDefaults()
	for _, b := range cfg.Bits {
		if b > 1 {
			return nil, fmt.Errorf("core: bits must be 0/1, got %d", b)
		}
	}
	s := &channelSession{cfg: cfg, logical: cfg.Bits, rep: cfg.Repetition}
	if s.rep < 1 {
		s.rep = 1
	}
	if s.rep > 1 {
		expanded := make([]byte, 0, len(s.logical)*s.rep)
		for _, b := range s.logical {
			for r := 0; r < s.rep; r++ {
				expanded = append(expanded, b)
			}
		}
		s.cfg.Bits = expanded
	}
	s.tCalEnd = s.cfg.CalBudget
	s.tSetupEnd = s.tCalEnd + s.cfg.SetupBudget
	s.t0 = s.tSetupEnd + s.cfg.SearchBudget
	s.tEnd = s.t0 + sim.Cycles(len(s.cfg.Bits))*s.cfg.Window
	s.res = &ChannelResult{Sent: s.cfg.Bits}
	return s, nil
}

// createProcs builds the trojan and spy processes and their enclaves on
// plat, in a fixed order: process index 0 is always the trojan, index 1 the
// spy. Forked sessions re-find their processes by these indices.
func (s *channelSession) createProcs(plat *platform.Platform) error {
	s.trojanProc = plat.NewProcess("trojan")
	s.spyProc = plat.NewProcess("spy")
	if _, err := s.trojanProc.CreateEnclave(calPages + trojanCandidates); err != nil {
		return err
	}
	if _, err := s.spyProc.CreateEnclave(calPages + spyCandidates); err != nil {
		return err
	}
	s.trojanCands = pageAddrs(s.trojanProc.Enclave().Base+enclave.VAddr(calPages*enclave.PageBytes), trojanCandidates, s.cfg.Index512)
	s.spyCands = pageAddrs(s.spyProc.Enclave().Base+enclave.VAddr(calPages*enclave.PageBytes), spyCandidates, s.cfg.Index512)
	return nil
}

// evict runs the paper's forward(+backward) pass over the eviction set.
func (s *channelSession) evict(th *platform.Thread) {
	for i := 0; i < len(s.evSet); i++ { // forward phase
		th.Access(s.evSet[i])
		th.Flush(s.evSet[i])
	}
	th.Mfence()
	if s.cfg.TwoPhaseEviction {
		for i := len(s.evSet) - 1; i >= 0; i-- { // backward phase
			th.Access(s.evSet[i])
			th.Flush(s.evSet[i])
		}
		th.Mfence()
	}
}

// trojanWarm is the sender's pre-transmission work: threshold calibration,
// Algorithm 1, and the search-phase burst loop the spy locks onto. It
// reports whether the phase succeeded; on failure s.trojanErr is set.
func (s *channelSession) trojanWarm(th *platform.Thread) bool {
	th.EnterEnclave()
	base := s.trojanProc.Enclave().Base
	threshold := calibrateThreshold(th, pageAddrs(base, calPages, s.cfg.Index512))
	th.SpinUntil(s.tCalEnd)

	a1, err := FindEvictionSet(th, s.trojanCands, threshold)
	if err != nil {
		s.trojanErr = err
		return false
	}
	s.evSet = a1.EvictionSet
	s.liveEvictionSet = s.evSet
	s.res.EvictionSetSize = len(s.evSet)
	s.res.SetupCycles = th.Now()
	if th.Now() > s.tSetupEnd {
		s.trojanErr = fmt.Errorf("core: trojan setup overran its budget (%d > %d)", th.Now(), s.tSetupEnd)
		return false
	}
	th.SpinUntil(s.tSetupEnd)

	// Search phase: burst continuously so the spy can find which of its
	// addresses conflicts with the eviction set.
	for th.Now() < s.t0-20_000 {
		s.evict(th)
		th.Spin(1000)
	}
	return true
}

// trojanTransmit is Algorithm 2, the trojan's operation.
func (s *channelSession) trojanTransmit(th *platform.Thread) {
	for i, bit := range s.cfg.Bits {
		th.WaitTimer(s.t0 + sim.Cycles(i)*s.cfg.Window)
		if bit == 1 {
			s.evict(th)
		}
		// '0': busy loop until the next window (the WaitTimer at the top
		// of the loop).
	}
}

// spySamples is how many times monitor discovery probes each candidate.
const spySamples = 10

// spyWarm is the receiver's pre-transmission work: threshold calibration
// and monitor-address discovery against the trojan's search bursts. It
// reports whether the phase succeeded; on failure s.spyErr is set.
func (s *channelSession) spyWarm(th *platform.Thread) bool {
	th.EnterEnclave()
	base := s.spyProc.Enclave().Base
	// Calibrate in the second half of the calibration phase, staggered
	// against the trojan so the two measurement loops don't contend.
	th.SpinUntil(s.tCalEnd / 2)
	s.spyThreshold = calibrateThreshold(th, pageAddrs(base, calPages, s.cfg.Index512))
	s.res.SpyThreshold = s.spyThreshold
	th.SpinUntil(s.tSetupEnd)

	// Monitor discovery: sample each candidate while the trojan bursts; the
	// address the bursts keep evicting is the monitor.
	bestScore, monitor := -1, enclave.VAddr(0)
	for _, cand := range s.spyCands {
		score := 0
		for i := 0; i < spySamples; i++ {
			th.Access(cand)
			th.Flush(cand)
			th.SpinUntil(th.Now() + 40_000) // several burst periods
			if timedAccess(th, cand) > s.spyThreshold {
				score++
			}
			th.Flush(cand)
		}
		if score > bestScore {
			bestScore, monitor = score, cand
		}
	}
	s.res.MonitorScore = bestScore
	if bestScore < spySamples*6/10 {
		s.spyErr = fmt.Errorf("core: monitor discovery failed (best score %d/%d)", bestScore, spySamples)
		return false
	}
	if th.Now() > s.t0 {
		s.spyErr = fmt.Errorf("core: spy search overran its budget (%d > %d)", th.Now(), s.t0)
		return false
	}
	s.monitor = monitor
	s.liveMonitor = []enclave.VAddr{monitor}
	return true
}

// spyTransmit is Algorithm 2, the spy's operation: prime just before
// transmission starts (after the trojan's last search-phase burst), then
// decode each window. The probe itself re-primes after a miss.
func (s *channelSession) spyTransmit(th *platform.Thread) {
	th.WaitTimer(s.t0 - 5000)
	th.Access(s.monitor)
	th.Flush(s.monitor)
	s.res.Received = make([]byte, len(s.cfg.Bits))
	s.res.ProbeTimes = make([]sim.Cycles, len(s.cfg.Bits))
	probeOffset := sim.Cycles(float64(s.cfg.Window) * s.cfg.ProbePhase)
	for i := range s.cfg.Bits {
		th.WaitTimer(s.t0 + sim.Cycles(i)*s.cfg.Window + probeOffset)
		t := timedAccess(th, s.monitor)
		th.Flush(s.monitor)
		s.res.ProbeTimes[i] = t
		if t > s.spyThreshold {
			s.res.Received[i] = 1
		}
	}
}

// spawnStatsReset arms the detector-statistics snapshot at transmission
// start: detector-visible counters cover the transmission phase only.
func (s *channelSession) spawnStatsReset(plat *platform.Platform) {
	plat.Engine().SpawnAt("stats-reset", s.t0-1, func(p *sim.Proc) {
		plat.Caches().LLC().ResetStats()
		plat.MEE().ResetStats()
	})
}

// finish turns the raw transmission record into the ChannelResult:
// footprint capture, repetition decoding, error statistics, and optional
// observability export.
func (s *channelSession) finish(plat *platform.Platform, injector *fault.Injector) (*ChannelResult, error) {
	res := s.res
	res.Footprint = captureFootprint(plat)
	if injector != nil {
		res.Faults = injector.Log()
	}
	if s.trojanErr != nil {
		return res, s.trojanErr
	}
	if s.spyErr != nil {
		return res, s.spyErr
	}
	if res.Received == nil {
		return res, fmt.Errorf("core: spy never completed transmission")
	}

	if s.rep > 1 {
		// Majority-decode each repetition group back to logical bits.
		decoded := make([]byte, len(s.logical))
		for i := range s.logical {
			ones := 0
			for r := 0; r < s.rep; r++ {
				ones += int(res.Received[i*s.rep+r])
			}
			if ones*2 > s.rep {
				decoded[i] = 1
			}
		}
		res.Sent = s.logical
		res.Received = decoded
	}
	for i := range res.Sent {
		if res.Received[i] != res.Sent[i] {
			res.BitErrors++
			res.ErrorBits = append(res.ErrorBits, i)
		}
	}
	res.ErrorRate = float64(res.BitErrors) / float64(len(res.Sent))
	res.KBps = plat.WindowKBps(s.cfg.Window) / float64(s.rep)
	if o := s.cfg.Obs; o != nil {
		o.Counter("channel.windows").Add(uint64(len(res.ProbeTimes)))
		o.Counter("channel.bits_sent").Add(uint64(len(res.Sent)))
		o.Counter("channel.bits_decoded").Add(uint64(len(res.Received)))
		o.Counter("channel.bit_errors").Add(uint64(res.BitErrors))
		for _, pos := range res.ErrorBits {
			o.Histogram("channel.error_position").Observe(int64(pos))
		}
		if tr := o.Tracer(); tr != nil {
			// Reconstruct the transmission timeline: per-window probe
			// latencies as instants on a "channel" track, and the cumulative
			// bit-error count as a counter track aligned to logical bits.
			track := tr.Track("channel")
			nProbe := tr.Name("channel.probe")
			nErrs := tr.Name("channel.errors")
			probeOffset := sim.Cycles(float64(s.cfg.Window) * s.cfg.ProbePhase)
			for i, pt := range res.ProbeTimes {
				tr.Instant(track, nProbe, int64(s.t0+sim.Cycles(i)*s.cfg.Window+probeOffset), int64(pt))
			}
			errSoFar, ei := 0, 0
			for i := range res.Sent {
				if ei < len(res.ErrorBits) && res.ErrorBits[ei] == i {
					errSoFar++
					ei++
				}
				tr.Count(nErrs, int64(s.t0+sim.Cycles((i+1)*s.rep)*s.cfg.Window), int64(errSoFar))
			}
		}
	}
	return res, nil
}

// RunChannel executes one full covert-channel session: threshold
// calibration on both sides, trojan eviction-set construction (Algorithm 1),
// spy monitor-address discovery, then the Algorithm 2 transmission of
// cfg.Bits. It returns the decoded sequence and channel statistics.
//
// Each side runs warm and transmit phases back to back in a single actor.
// WarmChannel/ChannelWarmState.Run split the same phases across a platform
// fork instead, with an identical operation stream.
func RunChannel(cfg ChannelConfig) (*ChannelResult, error) {
	s, err := prepareChannel(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	plat := cfg.boot()
	defer plat.Close()
	if err := s.createProcs(plat); err != nil {
		return nil, err
	}

	trojanTh := plat.SpawnThread("trojan", s.trojanProc, cfg.TrojanCore, func(th *platform.Thread) {
		if s.trojanWarm(th) {
			s.trojanTransmit(th)
		}
	})
	spyTh := plat.SpawnThread("spy", s.spyProc, cfg.SpyCore, func(th *platform.Thread) {
		if s.spyWarm(th) {
			s.spyTransmit(th)
		}
	})

	if err := spawnNoise(plat, cfg.Noise, cfg.NoiseCore, s.t0); err != nil {
		return nil, err
	}
	var injector *fault.Injector
	if cfg.Fault != nil {
		fc := *cfg.Fault
		if fc.Start == 0 && fc.End == 0 {
			fc.Start, fc.End = s.t0, s.tEnd
		}
		injector = fault.NewPlan(fc).Attach(plat, fault.Targets{
			Trojan: trojanTh, Spy: spyTh,
			TrojanProc: s.trojanProc, SpyProc: s.spyProc,
			TrojanPages: s.trojanCands, SpyPages: s.spyCands,
			TrojanLive: func() []enclave.VAddr { return s.liveEvictionSet },
			SpyLive:    func() []enclave.VAddr { return s.liveMonitor },
			TrojanHome: cfg.TrojanCore, SpyHome: cfg.SpyCore,
			StormCore: cfg.NoiseCore,
		})
	}
	// Snapshot detector-visible statistics over the transmission phase.
	s.spawnStatsReset(plat)
	if cfg.onPlatform != nil {
		cfg.onPlatform(plat, s.t0, s.tEnd)
	}

	plat.Run(s.tEnd + cfg.Window)
	return s.finish(plat, injector)
}

package core

import (
	"errors"
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

	// budgets, when set (by in-package tests), replaces the warm-up
	// schedule, so that a one-cycle budget puts the run limit inside that
	// phase.
	budgets warmBudgets

	// onPlatform, when set (by in-package studies), is invoked after the
	// attack actors are spawned with the platform and the transmission
	// interval — e.g. to attach a detector.
	onPlatform func(plat *platform.Platform, t0, tEnd sim.Cycles)
}

// Core placement: trojan, spy and noise run on three distinct physical
// cores, as in the paper's threat model.
const (
	trojanCore = 0
	spyCore    = 2
	noiseCore  = 1
)

// agreedIndex is the 512-byte unit within each 4 KB page that both sides
// use (§5.3: "any arbitrary index can be used").
const agreedIndex = 0

// The warm-up schedule in cycles: both sides calibrate their thresholds,
// the trojan runs Algorithm 1, and the spy locates its monitor address.
const (
	calBudget    sim.Cycles = 2_000_000
	setupBudget  sim.Cycles = 60_000_000
	searchBudget sim.Cycles = 14_000_000
)

// warmBudgets is a warm-up schedule; the zero value means the one above.
type warmBudgets struct{ cal, setup, search sim.Cycles }

// DefaultChannelConfig returns the paper's operating point: 15000-cycle
// window, alternating bits, two-phase eviction.
func DefaultChannelConfig(seed uint64) ChannelConfig {
	return ChannelConfig{
		Options:          DefaultOptions(seed),
		Window:           15000,
		Bits:             AlternatingBits(30),
		ProbePhase:       0.65,
		TwoPhaseEviction: true,
	}
}

func (c *ChannelConfig) applyDefaults() {
	if c.Window <= 0 {
		c.Window = 15000
	}
	if c.ProbePhase <= 0 || c.ProbePhase >= 1 {
		c.ProbePhase = 0.65
	}
	if c.budgets == (warmBudgets{}) {
		c.budgets = warmBudgets{calBudget, setupBudget, searchBudget}
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

// Enclave layout of every MEE-channel runner: calibration pools of calPages
// pages, then the candidate pages. Algorithm 1 builds the eviction set from
// evSetCandidates pages; the conflict search scores monitorCandidates pages
// against the eviction set's bursts. The trojan owns the eviction set and
// the spy the monitor, except in Prime+Probe, which reverses the roles.
const (
	calPages          = 8
	evSetCandidates   = 96
	monitorCandidates = 24
)

// Monitor discovery probes each candidate spySamples times, searchGap cycles
// (several burst periods) apart, and accepts a best score of at least
// minMonitorScore.
const (
	spySamples      = 10
	searchGap       = 40_000
	minMonitorScore = spySamples * 6 / 10
)

// channelSession carries the state shared between the warm phase
// (calibration, Algorithm 1 eviction-set construction, monitor discovery)
// and the transmit phase (Algorithm 2) of one covert-channel run.
// RunChannel drives both phases back to back in one pair of actors on a
// fresh platform; WarmChannel runs only the warm phase and snapshots the
// platform so many transmissions can fork from the same warm state.
// RunResilient and RunInBandChannel run the same warm phase and then their
// own transmit protocols.
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
	// trojanReady records that the trojan finished its warm phase; a run
	// limit that cuts Algorithm 1 short leaves it unset.
	trojanReady bool

	res               *ChannelResult
	trojanErr, spyErr error
}

// checkPayload rejects a payload with no bits, whose error rate would be
// 0/0, or with values other than 0 and 1. Every runner that transmits
// cfg.Bits calls it; the warm phase and the resilient session, which
// transmit no cfg.Bits, do not.
func checkPayload(bits []byte) error {
	if len(bits) == 0 {
		return errors.New("core: empty payload: no bits to transmit")
	}
	for _, b := range bits {
		if b > 1 {
			return fmt.Errorf("core: bits must be 0/1, got %d", b)
		}
	}
	return nil
}

// prepareChannel applies defaults, expands repetition coding, and computes
// the session schedule.
func prepareChannel(cfg ChannelConfig) (*channelSession, error) {
	cfg.applyDefaults()
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
	s.tCalEnd = s.cfg.budgets.cal
	s.tSetupEnd = s.tCalEnd + s.cfg.budgets.setup
	s.t0 = s.tSetupEnd + s.cfg.budgets.search
	s.tEnd = s.t0 + sim.Cycles(len(s.cfg.Bits))*s.cfg.Window
	s.res = &ChannelResult{Sent: s.cfg.Bits}
	return s, nil
}

// createProcs builds the trojan and spy processes and their enclaves on
// plat, in a fixed order: process index 0 is always the trojan, index 1 the
// spy. Forked sessions re-find their processes by these indices. Each
// enclave starts with `pools` disjoint calibration pools; the warm phase
// calibrates on the first.
func (s *channelSession) createProcs(plat *platform.Platform, pools int) error {
	s.trojanProc = plat.NewProcess("trojan")
	s.spyProc = plat.NewProcess("spy")
	if _, err := s.trojanProc.CreateEnclave(pools*calPages + evSetCandidates); err != nil {
		return err
	}
	if _, err := s.spyProc.CreateEnclave(pools*calPages + monitorCandidates); err != nil {
		return err
	}
	candBase := enclave.VAddr(pools * calPages * enclave.PageBytes)
	s.trojanCands = pageAddrs(s.trojanProc.Enclave().Base+candBase, evSetCandidates, agreedIndex)
	s.spyCands = pageAddrs(s.spyProc.Enclave().Base+candBase, monitorCandidates, agreedIndex)
	return nil
}

// trojanWarm is the sender's pre-transmission work: threshold calibration,
// Algorithm 1, and the search-phase burst loop the spy locks onto. It
// reports whether the phase succeeded; on failure s.trojanErr is set.
func (s *channelSession) trojanWarm(th *platform.Thread) bool {
	th.EnterEnclave()
	base := s.trojanProc.Enclave().Base
	threshold := calibrateThreshold(th, pageAddrs(base, calPages, agreedIndex))
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
	burstUntil(th, s.evSet, s.cfg.TwoPhaseEviction, s.t0-20_000)
	s.trojanReady = true
	return true
}

// trojanTransmit is Algorithm 2, the trojan's operation.
func (s *channelSession) trojanTransmit(th *platform.Thread) {
	for i, bit := range s.cfg.Bits {
		th.WaitTimer(s.t0 + sim.Cycles(i)*s.cfg.Window)
		if bit == 1 {
			evictPass(th, s.evSet, s.cfg.TwoPhaseEviction)
		}
		// '0': busy loop until the next window (the WaitTimer at the top
		// of the loop).
	}
}

// spyWarm is the receiver's pre-transmission work: threshold calibration
// and monitor-address discovery against the trojan's search bursts. It
// reports whether the phase succeeded; on failure s.spyErr is set.
func (s *channelSession) spyWarm(th *platform.Thread) bool {
	th.EnterEnclave()
	base := s.spyProc.Enclave().Base
	// Calibrate in the second half of the calibration phase, staggered
	// against the trojan so the two measurement loops don't contend.
	th.SpinUntil(s.tCalEnd / 2)
	s.spyThreshold = calibrateThreshold(th, pageAddrs(base, calPages, agreedIndex))
	s.res.SpyThreshold = s.spyThreshold
	th.SpinUntil(s.tSetupEnd)

	// Monitor discovery: the address the trojan's bursts keep evicting is
	// the monitor.
	monitor, bestScore := findConflict(th, s.spyCands, s.spyThreshold, spySamples, searchGap)
	s.res.MonitorScore = bestScore
	if bestScore < minMonitorScore {
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

// attachFaults arms cfg.Fault, if set, against the session's actors and
// pages; a campaign without its own window lands in [start, end).
func (s *channelSession) attachFaults(plat *platform.Platform, trojan, spy *platform.Thread, start, end sim.Cycles) *fault.Injector {
	if s.cfg.Fault == nil {
		return nil
	}
	fc := *s.cfg.Fault
	if fc.Start == 0 && fc.End == 0 {
		fc.Start, fc.End = start, end
	}
	return fault.NewPlan(fc).Attach(plat, fault.Targets{
		Trojan: trojan, Spy: spy,
		TrojanProc: s.trojanProc, SpyProc: s.spyProc,
		TrojanPages: s.trojanCands, SpyPages: s.spyCands,
		TrojanLive: func() []enclave.VAddr { return s.liveEvictionSet },
		SpyLive:    func() []enclave.VAddr { return s.liveMonitor },
		TrojanHome: trojanCore, SpyHome: spyCore,
		StormCore: noiseCore,
	})
}

// err reports why the session has nothing to decode: an actor's own error,
// or a run limit that stopped the trojan before its warm phase finished.
func (s *channelSession) err() error {
	switch {
	case s.trojanErr != nil:
		return s.trojanErr
	case s.spyErr != nil:
		return s.spyErr
	case !s.trojanReady:
		return errors.New("core: trojan never completed setup")
	}
	return nil
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
	if err := s.err(); err != nil {
		return res, err
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
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	s, err := prepareChannel(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	plat := cfg.boot()
	defer plat.Close()
	if err := s.createProcs(plat, 1); err != nil {
		return nil, err
	}

	trojanTh := plat.SpawnThread("trojan", s.trojanProc, trojanCore, func(th *platform.Thread) {
		if s.trojanWarm(th) {
			s.trojanTransmit(th)
		}
	})
	spyTh := plat.SpawnThread("spy", s.spyProc, spyCore, func(th *platform.Thread) {
		if s.spyWarm(th) {
			s.spyTransmit(th)
		}
	})

	if err := spawnNoise(plat, cfg.Noise, noiseCore, s.t0); err != nil {
		return nil, err
	}
	injector := s.attachFaults(plat, trojanTh, spyTh, s.t0, s.tEnd)
	// Snapshot detector-visible statistics over the transmission phase.
	s.spawnStatsReset(plat)
	if cfg.onPlatform != nil {
		cfg.onPlatform(plat, s.t0, s.tEnd)
	}

	plat.Run(s.tEnd + cfg.Window)
	return s.finish(plat, injector)
}

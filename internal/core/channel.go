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

// errIgnored is a runner's refusal of a ChannelConfig field it does not act
// on: a caller that sets one gets this error, not a run that ignored it.
func errIgnored(runner, field string) error {
	return fmt.Errorf("core: %s does not act on ChannelConfig.%s", runner, field)
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

// channelSession carries one channel run from start to result: the
// schedule both sides agree on, the two processes, what the warm phase
// computed, and the transmission record. It has two roles. Its trojan*
// fields are the owner role, which calibrates and builds the eviction set
// with Algorithm 1 (ownerWarm); its spy* fields are the finder role, which
// finds the address that conflicts with that set (finderWarm). The MEE
// channel gives the owner role to the trojan; Prime+Probe gives it to the
// spy.
//
// RunChannel drives the warm and transmit phases back to back in one pair
// of actors; WarmChannel runs only the warm phase and snapshots the
// platform so many transmissions can fork from the same warm state.
// RunResilient, RunInBandChannel and RunPrimeProbe run the same warm steps
// and then their own transmit protocols. Each of these starts its session
// with startChannel. Every runner that transmits, a warm state's Run
// among them, arms its noise and faults with environment once both
// endpoint threads are spawned or resumed.
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

	warmed

	res               *ChannelResult
	trojanErr, spyErr error
}

// warmed is what a session's warm phase computes, recorded once. The warm
// steps write it; the transmit phase, RunResilient's rounds and fault
// targeting read it; finish reports it; a warm state carries it whole
// across a fork.
type warmed struct {
	evSet        []enclave.VAddr // the owner's eviction set; nil until Algorithm 1 returns
	setupCycles  sim.Cycles      // the owner's clock when Algorithm 1 returned
	spyThreshold sim.Cycles      // the finder's hit/miss threshold
	monitorScore int             // the finder's best conflict score
	monitor      enclave.VAddr   // the finder's conflicting address; 0 until found
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
func prepareChannel(cfg ChannelConfig) *channelSession {
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
	return s
}

// startChannel starts a session on a machine of its own: it prepares cfg's
// session, boots the machine and creates both processes, each enclave with
// `pools` calibration pools. On error it closes the machine.
func startChannel(cfg ChannelConfig, pools int) (*channelSession, *platform.Platform, error) {
	s := prepareChannel(cfg)
	plat := s.cfg.boot()
	if err := s.createProcs(plat, pools); err != nil {
		plat.Close()
		return nil, nil, err
	}
	return s, plat, nil
}

// createProcs builds the owner's and the finder's processes and their
// enclaves on plat, in a fixed order: process index 0 is always the owner
// (named trojan), index 1 the finder (named spy). Forked sessions re-find
// their processes by these indices. Each enclave starts with `pools`
// disjoint calibration pools; the warm phase calibrates on the first.
func (s *channelSession) createProcs(plat *platform.Platform, pools int) error {
	s.trojanProc = plat.NewProcess("trojan")
	s.spyProc = plat.NewProcess("spy")
	if _, err := s.trojanProc.CreateEnclave(pools*calPages + evSetCandidates); err != nil {
		return err
	}
	if _, err := s.spyProc.CreateEnclave(pools*calPages + monitorCandidates); err != nil {
		return err
	}
	s.deriveCandidates(pools)
	return nil
}

// deriveCandidates sets both enclaves' candidate pages, which follow each
// enclave's `pools` calibration pools: the pages Algorithm 1 and monitor
// discovery search, and the ones a campaign's paging events target. A
// forked session derives them again from the processes it re-finds.
func (s *channelSession) deriveCandidates(pools int) {
	candBase := enclave.VAddr(pools * calPages * enclave.PageBytes)
	s.trojanCands = pageAddrs(s.trojanProc.Enclave().Base+candBase, evSetCandidates, agreedIndex)
	s.spyCands = pageAddrs(s.spyProc.Enclave().Base+candBase, monitorCandidates, agreedIndex)
}

// ownerWarm is the owner's warm step: threshold calibration, Algorithm 1,
// and the wait to the end of the setup phase. It reports whether the step
// succeeded; on failure s.trojanErr is set.
func (s *channelSession) ownerWarm(th *platform.Thread) bool {
	th.EnterEnclave()
	base := s.trojanProc.Enclave().Base
	threshold := calibrateThreshold(th, pageAddrs(base, calPages, agreedIndex))
	th.SpinUntil(s.tCalEnd)

	a1, err := FindEvictionSet(th, s.trojanCands, threshold)
	if err != nil {
		s.trojanErr = err
		return false
	}
	s.evSet, s.setupCycles = a1.EvictionSet, th.Now()
	if th.Now() > s.tSetupEnd {
		s.trojanErr = fmt.Errorf("core: trojan setup overran its budget (%d > %d)", th.Now(), s.tSetupEnd)
		return false
	}
	th.SpinUntil(s.tSetupEnd)
	return true
}

// finderWarm is the finder's warm step: threshold calibration, staggered
// into the second half of the calibration phase so the two measurement
// loops don't contend, then the search for the address the owner's
// search-phase signal keeps evicting. Each candidate is probed samples
// times, gap cycles apart, and the best one is accepted at a score of at
// least minScore. It reports whether the step succeeded; on failure
// s.spyErr is set.
func (s *channelSession) finderWarm(th *platform.Thread, samples int, gap sim.Cycles, minScore int) bool {
	th.EnterEnclave()
	base := s.spyProc.Enclave().Base
	th.SpinUntil(s.tCalEnd / 2)
	s.spyThreshold = calibrateThreshold(th, pageAddrs(base, calPages, agreedIndex))
	th.SpinUntil(s.tSetupEnd)

	monitor, bestScore := findConflict(th, s.spyCands, s.spyThreshold, samples, gap)
	s.monitorScore = bestScore
	if bestScore < minScore {
		s.spyErr = fmt.Errorf("core: monitor discovery failed (best score %d/%d)", bestScore, samples)
		return false
	}
	if th.Now() > s.t0 {
		s.spyErr = fmt.Errorf("core: spy search overran its budget (%d > %d)", th.Now(), s.t0)
		return false
	}
	s.monitor = monitor
	return true
}

// trojanWarm is the MEE channel sender's warm phase: the owner step, then
// the search-phase burst loop the spy locks onto.
func (s *channelSession) trojanWarm(th *platform.Thread) bool {
	if !s.ownerWarm(th) {
		return false
	}
	burstUntil(th, s.evSet, s.cfg.TwoPhaseEviction, s.t0-20_000)
	return true
}

// spyWarm is the MEE channel receiver's warm phase: the finder step, which
// locates the monitor address.
func (s *channelSession) spyWarm(th *platform.Thread) bool {
	return s.finderWarm(th, spySamples, searchGap, minMonitorScore)
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

// spyTransmit is Algorithm 2, the spy's operation: prime just before
// transmission starts (after the trojan's last search-phase burst), then
// decode each window. The probe itself re-primes after a miss.
func (s *channelSession) spyTransmit(th *platform.Thread) {
	th.WaitTimer(s.t0 - 5000)
	th.AccessFlush(s.monitor)
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

// environment starts the session's background noise at t0 on noiseCore and
// arms its fault campaign against the owner thread (trojan) and the finder
// thread (spy); a campaign without its own window lands in [t0, end).
// Paging events aim at the eviction set and, once found, the monitor.
// Every runner calls it after spawning or resuming both endpoint threads.
func (s *channelSession) environment(plat *platform.Platform, trojan, spy *platform.Thread, end sim.Cycles) (*fault.Injector, error) {
	if err := spawnNoise(plat, s.cfg.Noise, noiseCore, s.t0); err != nil {
		return nil, err
	}
	if s.cfg.Fault == nil {
		return nil, nil
	}
	fc := *s.cfg.Fault
	if fc.Start == 0 && fc.End == 0 {
		fc.Start, fc.End = s.t0, end
	}
	return fault.NewPlan(fc).Attach(plat, fault.Targets{
		Trojan: trojan, Spy: spy,
		TrojanProc: s.trojanProc, SpyProc: s.spyProc,
		TrojanPages: s.trojanCands, SpyPages: s.spyCands,
		TrojanLive: func() []enclave.VAddr { return s.evSet },
		SpyLive: func() []enclave.VAddr {
			if s.monitor == 0 {
				return nil
			}
			return []enclave.VAddr{s.monitor}
		},
		TrojanHome: trojanCore, SpyHome: spyCore,
		StormCore: noiseCore,
	}), nil
}

// err reports why the session has nothing to decode: an actor's own error,
// or a run limit that stopped the owner before Algorithm 1 returned.
func (s *channelSession) err() error {
	switch {
	case s.trojanErr != nil:
		return s.trojanErr
	case s.spyErr != nil:
		return s.spyErr
	case s.evSet == nil:
		return errors.New("core: trojan never completed setup")
	}
	return nil
}

// spawnStatsReset arms the detector-statistics snapshot at transmission
// start t0: detector-visible counters cover the transmission phase only.
func spawnStatsReset(plat *platform.Platform, t0 sim.Cycles) {
	plat.Engine().SpawnAt("stats-reset", t0-1, func(p *sim.Proc) {
		plat.Caches().LLC().ResetStats()
		plat.MEE().ResetStats()
	})
}

// countErrors returns the positions at which received differs from sent,
// and the share of sent's bits they make up.
func countErrors(sent, received []byte) (positions []int, rate float64) {
	for i := range sent {
		if received[i] != sent[i] {
			positions = append(positions, i)
		}
	}
	return positions, float64(len(positions)) / float64(len(sent))
}

// finish turns the raw transmission record into the ChannelResult:
// the warm phase's products, footprint capture, repetition decoding, error
// statistics, and optional observability export.
func (s *channelSession) finish(plat *platform.Platform, injector *fault.Injector) (*ChannelResult, error) {
	res := s.res
	res.SpyThreshold = s.spyThreshold
	res.EvictionSetSize = len(s.evSet)
	res.MonitorScore = s.monitorScore
	res.SetupCycles = s.setupCycles
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
	res.ErrorBits, res.ErrorRate = countErrors(res.Sent, res.Received)
	res.BitErrors = len(res.ErrorBits)
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
	s, plat, err := startChannel(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer plat.Close()

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
	return s.runTransmit(plat, trojanTh, spyTh)
}

// runTransmit is the tail RunChannel and a warm state's Run share once both
// endpoint threads are spawned or resumed: it arms the environment, the
// statistics reset at t0 and the study callback, in that order, runs to the
// end of the last window and reports.
func (s *channelSession) runTransmit(plat *platform.Platform, trojan, spy *platform.Thread) (*ChannelResult, error) {
	injector, err := s.environment(plat, trojan, spy, s.tEnd)
	if err != nil {
		return nil, err
	}
	spawnStatsReset(plat, s.t0)
	if s.cfg.onPlatform != nil {
		s.cfg.onPlatform(plat, s.t0, s.tEnd)
	}
	plat.Run(s.tEnd + s.cfg.Window)
	return s.finish(plat, injector)
}

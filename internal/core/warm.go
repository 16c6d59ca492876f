package core

import (
	"fmt"

	"meecc/internal/enclave"
	"meecc/internal/platform"
	"meecc/internal/sim"
)

// ChannelWarmState is the reusable product of WarmChannel: a platform
// snapshot taken after threshold calibration, eviction-set construction
// (Algorithm 1), and monitor discovery have completed — a point that does
// not depend on the payload, the timing window, or the probe phase. Run
// forks the snapshot per transmission, so a sweep over windows or payloads
// pays the ~76M-cycle warm-up once instead of once per cell.
//
// A warm state is tied to the exact machine and schedule it was produced
// under; Run rejects configs that would have changed the warm phase.
type ChannelWarmState struct {
	warmCfg ChannelConfig // defaults applied; Bits/Window vary per Run

	snap                  *platform.Snapshot
	trojanSt, spySt       platform.ThreadState
	trojanClock, spyClock sim.Cycles

	evSet        []enclave.VAddr
	monitor      enclave.VAddr
	spyThreshold sim.Cycles

	evictionSetSize int
	monitorScore    int
	setupCycles     sim.Cycles
}

// warmRestriction reports why cfg cannot use the warm-fork path. Noise and
// fault actors, study callbacks, and observers all attach to the concrete
// platform during or before the warm phase, so configs using them must run
// fresh via RunChannel.
func warmRestriction(cfg ChannelConfig) error {
	switch {
	case cfg.Noise != NoiseNone:
		return fmt.Errorf("core: warm forking does not support background noise (%s)", cfg.Noise)
	case cfg.Fault != nil:
		return fmt.Errorf("core: warm forking does not support fault injection")
	case cfg.onPlatform != nil:
		return fmt.Errorf("core: warm forking does not support onPlatform callbacks")
	case cfg.Obs != nil:
		return fmt.Errorf("core: warm forking does not support observability")
	}
	return nil
}

// WarmChannel runs the warm phase of a channel session — calibration on
// both sides, Algorithm 1, monitor discovery — to completion and snapshots
// the platform. cfg.Bits, Window, ProbePhase, and Repetition are ignored:
// they only shape the transmit phase and are taken from the config passed
// to each Run.
func WarmChannel(cfg ChannelConfig) (*ChannelWarmState, error) {
	cfg.applyDefaults()
	if err := warmRestriction(cfg); err != nil {
		return nil, err
	}
	warm := cfg
	warm.Bits, warm.Repetition = nil, 0
	s, err := prepareChannel(warm)
	if err != nil {
		return nil, err
	}
	plat := warm.boot()
	defer plat.Close()
	if err := s.createProcs(plat); err != nil {
		return nil, err
	}

	ws := &ChannelWarmState{warmCfg: s.cfg}
	// Warm actors are spawned in the same order as RunChannel's combined
	// actors (trojan first, then spy), so they get the same spawn ids and
	// the engine breaks clock ties identically — the warm operation stream
	// is bit-for-bit the one a fresh full run would produce.
	plat.SpawnThread("trojan", s.trojanProc, s.cfg.TrojanCore, func(th *platform.Thread) {
		if s.trojanWarm(th) {
			ws.trojanSt, ws.trojanClock = th.State(), th.Now()
		}
	})
	plat.SpawnThread("spy", s.spyProc, s.cfg.SpyCore, func(th *platform.Thread) {
		if s.spyWarm(th) {
			ws.spySt, ws.spyClock = th.State(), th.Now()
		}
	})
	plat.Run(-1)
	if s.trojanErr != nil {
		return nil, s.trojanErr
	}
	if s.spyErr != nil {
		return nil, s.spyErr
	}
	ws.snap = plat.Snapshot()
	ws.evSet = s.evSet
	ws.monitor = s.monitor
	ws.spyThreshold = s.spyThreshold
	ws.evictionSetSize = s.res.EvictionSetSize
	ws.monitorScore = s.res.MonitorScore
	ws.setupCycles = s.res.SetupCycles
	return ws, nil
}

// compatible rejects configs whose warm phase would have differed from the
// one this state was produced under.
func (ws *ChannelWarmState) compatible(cfg ChannelConfig) error {
	w := ws.warmCfg
	switch {
	case cfg.Options != w.Options:
		return fmt.Errorf("core: warm state options mismatch")
	case cfg.Index512 != w.Index512:
		return fmt.Errorf("core: warm state Index512 mismatch (%d != %d)", cfg.Index512, w.Index512)
	case cfg.TwoPhaseEviction != w.TwoPhaseEviction:
		return fmt.Errorf("core: warm state TwoPhaseEviction mismatch")
	case cfg.TrojanCore != w.TrojanCore || cfg.SpyCore != w.SpyCore:
		return fmt.Errorf("core: warm state core placement mismatch")
	case cfg.CalBudget != w.CalBudget || cfg.SetupBudget != w.SetupBudget || cfg.SearchBudget != w.SearchBudget:
		return fmt.Errorf("core: warm state schedule mismatch")
	}
	return nil
}

// Run executes one transmission from the warm state: fork the snapshot,
// resume the trojan and spy threads where their warm phase left off, and
// run Algorithm 2 with cfg's payload and window. The result is identical —
// probe latencies, decoded bits, footprint, and all — to what RunChannel
// would return for the same config, because the forked platform resumes
// the engine's RNG stream and memory state exactly where the warm phase
// ended (see TestWarmForkMatchesFreshRun).
func (ws *ChannelWarmState) Run(cfg ChannelConfig) (*ChannelResult, error) {
	cfg.applyDefaults()
	if err := warmRestriction(cfg); err != nil {
		return nil, err
	}
	if err := ws.compatible(cfg); err != nil {
		return nil, err
	}
	s, err := prepareChannel(cfg)
	if err != nil {
		return nil, err
	}
	plat := ws.snap.Fork()
	defer plat.Close()
	s.trojanProc, s.spyProc = plat.Procs()[0], plat.Procs()[1]
	s.evSet = ws.evSet
	s.monitor = ws.monitor
	s.spyThreshold = ws.spyThreshold
	s.liveEvictionSet = ws.evSet
	s.liveMonitor = []enclave.VAddr{ws.monitor}
	s.res.EvictionSetSize = ws.evictionSetSize
	s.res.MonitorScore = ws.monitorScore
	s.res.SetupCycles = ws.setupCycles
	s.res.SpyThreshold = ws.spyThreshold

	// Same spawn order as RunChannel (trojan id 0, spy id 1, stats-reset
	// next), so clock ties resolve as they would in a fresh run.
	plat.ResumeThread("trojan", s.trojanProc, ws.trojanClock, ws.trojanSt, func(th *platform.Thread) {
		s.trojanTransmit(th)
	})
	plat.ResumeThread("spy", s.spyProc, ws.spyClock, ws.spySt, func(th *platform.Thread) {
		s.spyTransmit(th)
	})
	s.spawnStatsReset(plat)

	plat.Run(s.tEnd + s.cfg.Window)
	return s.finish(plat, nil)
}

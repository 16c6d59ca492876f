package core

import (
	"fmt"

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
// A warm state holds only what its warm phase computed and the inputs it
// was computed from, so two configs with one warmKey yield equal states.
// Run rejects configs whose inputs differ.
type ChannelWarmState struct {
	in warmInputs

	snap                  *platform.Snapshot
	trojanClock, spyClock sim.Cycles // where each warm actor finished
	warmed
}

// warmInputs are what a warm phase depends on: the machine and the
// eviction mode. The schedule, core placement and agreed index are package
// constants, and warmRestriction refuses everything else that acts before
// the warm phase ends.
type warmInputs struct {
	Options
	TwoPhaseEviction bool
}

func warmInputsOf(cfg ChannelConfig) warmInputs {
	return warmInputs{cfg.Options, cfg.TwoPhaseEviction}
}

// warmRestriction reports why cfg cannot use the warm-fork path. It refuses
// exactly what acts before the warm phase ends, which a fork taken at its
// end cannot replay. The rest of a session's environment starts at t0 (MEE
// noise, a campaign without its own window), and Run arms it as RunChannel
// does.
func warmRestriction(cfg ChannelConfig) error {
	switch {
	case cfg.Noise == NoiseMemory:
		// spawnNoise maps 2 048 general pages before the run, which shifts
		// the stream the warm phase draws from.
		return fmt.Errorf("core: warm forking does not support background noise (%s)", cfg.Noise)
	case cfg.Fault != nil && (cfg.Fault.Start != 0 || cfg.Fault.End != 0):
		// A campaign with its own Start/End can land inside the warm phase.
		return fmt.Errorf("core: warm forking does not support a fault campaign with its own window")
	case cfg.onPlatform != nil:
		// detect.NewMonitor copies the LLC's per-set eviction counts, which
		// are zero at boot but hold the warm phase's evictions on a fork.
		return fmt.Errorf("core: warm forking does not support onPlatform callbacks")
	case cfg.Obs != nil:
		// An observer counts the warm phase's events.
		return fmt.Errorf("core: warm forking does not support observability")
	}
	return nil
}

// WarmChannel runs the warm phase of a channel session — calibration on
// both sides, Algorithm 1, monitor discovery — to completion and snapshots
// the platform. cfg.Bits, Window, ProbePhase, Repetition, and the MEE
// noise and fault campaign warmRestriction lets through are ignored: they
// only shape the transmit phase and are taken from the config passed to
// each Run.
func WarmChannel(cfg ChannelConfig) (*ChannelWarmState, error) {
	if err := warmRestriction(cfg); err != nil {
		return nil, err
	}
	cfg.Bits, cfg.Repetition = nil, 0
	s, plat, err := startChannel(cfg, 1)
	if err != nil {
		return nil, err
	}
	defer plat.Close()

	ws := &ChannelWarmState{in: warmInputsOf(s.cfg)}
	// Warm actors are spawned in the same order as RunChannel's combined
	// actors (trojan first, then spy), so they get the same spawn ids and
	// the engine breaks clock ties identically — the warm operation stream
	// is bit-for-bit the one a fresh full run would produce.
	plat.SpawnThread("trojan", s.trojanProc, trojanCore, func(th *platform.Thread) {
		if s.trojanWarm(th) {
			ws.trojanClock = th.Now()
		}
	})
	plat.SpawnThread("spy", s.spyProc, spyCore, func(th *platform.Thread) {
		if s.spyWarm(th) {
			ws.spyClock = th.Now()
		}
	})
	plat.Run(-1)
	if err := s.err(); err != nil {
		return nil, err
	}
	ws.snap = plat.Snapshot()
	ws.warmed = s.warmed
	return ws, nil
}

// Run executes one transmission from the warm state: fork the snapshot,
// resume the trojan and spy threads where their warm phase left off, arm
// cfg's environment, and run Algorithm 2 with cfg's payload and window.
// The result is identical — probe latencies, decoded bits, footprint,
// fault log and all — to what RunChannel would return for the same config,
// because the forked platform resumes the engine's RNG stream and memory
// state exactly where the warm phase ended, and everything the environment
// arms acts from t0 on (see TestWarmForkMatchesFreshRun and
// TestWarmForkMatchesFreshUnderEnvironment).
func (ws *ChannelWarmState) Run(cfg ChannelConfig) (*ChannelResult, error) {
	if err := warmRestriction(cfg); err != nil {
		return nil, err
	}
	if warmInputsOf(cfg) != ws.in {
		return nil, fmt.Errorf("core: warm state inputs mismatch (Options or TwoPhaseEviction)")
	}
	if err := checkPayload(cfg.Bits); err != nil {
		return nil, err
	}
	s := prepareChannel(cfg)
	plat := ws.snap.Fork()
	defer plat.Close()
	s.trojanProc, s.spyProc = plat.Procs()[0], plat.Procs()[1]
	s.deriveCandidates(1)
	s.warmed = ws.warmed

	// Same spawn order as RunChannel (trojan id 0, spy id 1, then what
	// runTransmit arms), so clock ties resolve as they would in a fresh
	// run. Each thread resumes on its home core in enclave mode with
	// nothing pending: only a fault campaign moves a thread or leaves it a
	// stall, timer drift or jitter, and none acts before t0.
	trojanTh := plat.ResumeThread("trojan", s.trojanProc, ws.trojanClock,
		platform.ThreadState{Core: trojanCore, EnclaveMode: true}, s.trojanTransmit)
	spyTh := plat.ResumeThread("spy", s.spyProc, ws.spyClock,
		platform.ThreadState{Core: spyCore, EnclaveMode: true}, s.spyTransmit)
	return s.runTransmit(plat, trojanTh, spyTh)
}
